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
replicates one epoch at a time and holds the one copy of the stop at
f <= tol or the epoch budget and the nonfinite-f failure; its input
checks, `_checked_starts`, are `_cyclic_tail`'s too.  Its docstring
lists the kernel each input takes.  For the dense model the one epoch
kernel, `_epoch_dense`, advances a stack of matrices, each slice in its
own order, a block of `_ROW_BLOCK` visited rows per pair of batched
products, with the blocks' triangular inverses by squaring, not LAPACK.
It returns each slice's decrease of f, by which `figure lu` carries E f
of all its epoch products, cyclic and permutation-ordered, between
exact evaluations.  The cyclic order makes
every epoch the same map M, so when a block of at least two n x n maps
fits in about 1 MB (n <= 256) `_runs` builds M, M^2, ..., M^K once and
advances K epochs with one matrix-vector product, up to the first epoch
whose f it must judge: at or below the tolerance, nonfinite, or the last.

A rate over the last epochs of a cyclic run needs only its stop epoch
and those epochs, which `_cyclic_tail` returns.  For the
permutation-invariant model at delta < 1 it finds both without stepping
the run: it evaluates f at any epoch in O(n^2) from the closed-form
eigenvalues and eigenvectors of C (`_spectral_tail`), at any n and with
no epoch map.  Every cell that route does not take (its guard, the
dense model, delta >= 1, a start `run` stops or fails at, or a window
that misses tol) steps the run with `run`, by the block path at n <= 256.
Table 1's cyclic column uses it, and its random columns one `_runs`
call per ordering.

Every f recorded here, by the row loop, the rpcd scan, the dense
kernel, the block path and `_cyclic_tail`, is `quadratic.objective`,
which gives each iterate of a stack the float it gives alone.
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

# Newton iterations on the branch equation (`_branch_step`) before a root fails.
_NEWTON_ITERATIONS = 100

# Most f after epoch 1 of `_spectral_tail` may differ, relative, from one row-loop
# epoch's.  Against a 60-digit loop (n = 3-64, up to 60 epochs) it read under
# 4e-14 for 1e-10 <= delta <= 1 - 1e-4, where f over the window was within
# 7e-14, and 8e-12 to 5 at delta = 1e-20 and 1e-30, where the window was as far off.
_SPECTRAL_RTOL = 1e-13

# Powers of delta below this are 0 in the rpcd scan of `_runs`: they scale a
# term by under 1e-289, so dropping them moves f only where coordinates
# differ by some 280 orders of magnitude; kept, their subnormal products
# made the dense product the scan replaced 3x slower (n = 256, delta = 0.03).
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

# Most entries in one replicate's chunk of drawn orders (`_Orders`): a
# chunk holds max(1, 2048 // n) epochs, 20 at n = 100 and one from n = 1025
# on.  On a 2-core host at n = 100 an epoch's order cost 10.3 us (rcd) and
# 7.2 us (rpcd) drawn one epoch per call, 1.6 and 2.5 us at 1024 entries,
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


class _Orders:
    """One replicate's coordinate orders, drawn a chunk of epochs per generator call.

    The cyclic order is returned every epoch and draws nothing.  rcd draws
    rng.integers(0, n, size=(k, n)) and rpcd rng.permuted of k rows of
    arange(n), k = max(1, `_ORDER_CHUNK` // n) epochs from the first call;
    numpy gives the same rows, and leaves the same state, as k
    single-epoch calls.  For a replicate that leaves inside a chunk,
    `close` restores the state saved before it and redraws the epochs used.
    """

    def __init__(self, policy: OrderingPolicy, n: int, rng: np.random.Generator):
        self.kind, self.n, self.rng = policy.kind, n, rng
        self.fixed = np.arange(n) if policy.kind == "ccd" else None
        self.k = max(1, _ORDER_CHUNK // n)  # epochs per chunk
        self.chunk, self.used, self.state = None, 0, None

    def _draw(self, k: int) -> np.ndarray:
        if self.kind == "rcd":
            return self.rng.integers(0, self.n, size=(k, self.n))
        rows = np.tile(np.arange(self.n), (k, 1))
        return self.rng.permuted(rows, axis=1, out=rows)

    def next(self) -> np.ndarray:
        """The next epoch's order, as an array of n indices."""
        if self.fixed is not None:
            return self.fixed
        if self.chunk is None or self.used == len(self.chunk):
            # a one-epoch chunk is used up by its first call, so never restored
            self.state = self.rng.bit_generator.state if self.k > 1 else None
            self.chunk, self.used = self._draw(self.k), 0
        self.used += 1
        return self.chunk[self.used - 1]

    def close(self) -> None:
        """Leave the generator where drawing only the orders used leaves it; drop the chunk."""
        if self.chunk is not None and self.used < len(self.chunk):
            self.rng.bit_generator.state = self.state
            if self.used:
                self._draw(self.used)
        self.chunk = None


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


def _run_blocks(model, M, x, max_epochs, tol, fs) -> tuple[np.ndarray, int, float]:
    """Advance 1..max_epochs epochs of the fixed map M, K per product.

    The stack [M; M^2; ...; M^K] is built once, in place; each block
    computes the next K iterates from the current one as rows of
    (stack @ x) and their objectives in one expression.  The exit epoch
    is the first whose f is <= tol or nonfinite, or max_epochs.  Appends
    to fs the f of every epoch before it; returns its iterate, its number
    and its f, which `_runs` judges.
    """
    n = model.n
    K = min(_block_epochs(n), max_epochs)
    stack = np.empty((K, n, n))
    stack[0] = M
    for k in range(1, K):
        np.matmul(M, stack[k - 1], out=stack[k])
    stack = stack.reshape(K * n, n)
    epochs = 0
    while True:
        k = min(K, max_epochs - epochs)
        Y = (stack[: k * n] @ x).reshape(k, n)
        fk = objective(model, Y)
        stops = np.flatnonzero(~np.isfinite(fk) | (fk <= tol))
        j = int(stops[0]) if stops.size else k - 1
        fs.extend(fk[:j].tolist())
        x, epochs = Y[j].copy(), epochs + j + 1
        if stops.size or epochs == max_epochs:
            return x, epochs, float(fk[j])
        fs.append(float(fk[j]))


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
    nonfinite f or the budget.  One rule after the start, `steps_on`,
    judges every f a kernel returns, the block path's last included: it
    records f or builds the NumericalError, and closes the orders of a
    replicate that leaves.  Its orders come from `_Orders`, a chunk of
    epochs per call of rngs[r]; when it leaves, rngs[r] is where drawing
    its orders one epoch per call leaves it, so one that takes no epoch
    draws nothing.  The kernel follows from the input:

    - ccd where `_block_epochs(n) >= 2` (n <= 256): `_run_blocks` per
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

    Every f is `objective`, one call per epoch: of the stack of starts,
    then of the stepped rows of every kernel.  The row loop passes one
    active row as an iterate, which is faster and gives the same float.
    """
    n = model.n
    perm_invariant = isinstance(model, PermInvariantQuadratic)
    X = _checked_starts(n, starts, max_epochs, tol)
    rows = list(X)  # views; indexing a list is cheaper than X[r] in the row loop
    orders = [_Orders(policy, n, rng) for rng in rngs]
    f0 = objective(model, X).tolist()
    if perm_invariant and policy.kind == "rpcd" and len(X) > 1:
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
            idx = np.array([orders[r].next() for r in active])
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
                _epoch_perm_invariant(lists[r], delta, orders[r].next().tolist())
                rows[r][:] = lists[r]
            if len(active) == 1:
                return [objective(model, rows[active[0]])]
            return objective(model, X[active]).tolist()
    else:
        def step(active):
            G = X[active, :, None]
            _epoch_dense(G, model.A, np.array([orders[r].next() for r in active]))
            X[active] = G[..., 0]
            return objective(model, G[..., 0]).tolist()

    # f as C doubles: lists of float objects, live for a whole stack of
    # runs, raised the peak RSS of a 40-pass table1 process by 0.9 MB
    fs = [array("d", (f,)) for f in f0]
    out = [None if math.isfinite(f) else NumericalError(f"nonfinite objective at start: {f}")
           for f in f0]
    active = [r for r, f in enumerate(f0) if out[r] is None and f > tol and max_epochs > 0]

    def steps_on(r, epoch, f) -> bool:
        if not math.isfinite(f):
            out[r] = NumericalError(f"nonfinite objective after {epoch * n} iterations",
                                    fs[r][-1])
        else:
            fs[r].append(f)
            if f > tol and epoch < max_epochs:
                return True
        orders[r].close()
        return False

    if policy.kind == "ccd" and _block_epochs(n) >= 2 and active:
        M = epoch_map(model)
        for r in active:
            rows[r][:], epoch, f = _run_blocks(model, M, rows[r], max_epochs, tol, fs[r])
            steps_on(r, epoch, f)
        active = []
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
    f(x^{l*n}) <= tol or the epoch budget is exhausted.  Deterministic
    for a fixed seed: the only randomness is the per-epoch coordinate
    order drawn from the seeded generator.  Orders are drawn a chunk of
    epochs per generator call, and each epoch's order, and the state the
    generator is left in, are those of one rng.integers(0, n, size=n)
    (rcd) or rng.permutation(n) (rpcd) call per epoch.  The iterate after
    k epochs is run(..., max_epochs=k, tol=0.0).final_x.  This is `_runs`
    with one start, so a seeded replicate of a stacked run is this run.

    The cyclic order (`ccd`) at n <= 256 runs as blocks of stacked powers
    of its epoch map (see the module docstring).  It draws nothing from
    the generator.  Its iterates agree with the per-coordinate loop to
    rounding, but reusing one rounded map lets f drift from the loop's by
    about 2e-17 relative per epoch (about 1e-12 after 60k epochs at
    n=100).  Random orders, and the cyclic order at larger n, step one
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


def _branch_step(mu, n, delta, dw):
    """Newton step on mu^n - dw mu^(n-1) + delta - 1, dw = delta w^k (`rates.rho_C`)."""
    return (mu ** (n - 1) * (mu - dw) + (delta - 1.0)) / (mu ** (n - 2) * (n * mu - (n - 1) * dw))


def _cyclic_spectrum(n: int, delta: float):
    """t_k = log mu_k, k = 1..n//2, for the cyclic map at delta < 1, or None.

    C's nonzero eigenvalues are e^(n t_k) and their conjugates (branches
    n - k).  Newton's method (`_branch_step`) from mu = 1, then three steps
    in long double on expm1(nt) + delta = delta e^(i theta_k + (n-1)t),
    theta_k = 2 pi k/n: lambda^e = e^(e n t) is then off by about
    e |log lambda| ulps, not e (f after 70 epochs at (64, 0.9): 2.3e-15
    off 40 digits, 1.8e-13 with a double polish).  None where a branch does
    not converge, moves by over an ulp of t in its last step (under 0.32
    up to n = 1e4; where long double is double, 5 of the 6 default cells
    fail this), or gives an eigenvalue twice.
    """
    pi = np.longdouble("3.14159265358979323846264338327950288")
    theta = 2 * pi * np.arange(1, n // 2 + 1) / n
    dw = delta * np.exp(1j * theta.astype(float))
    mu = np.ones(len(theta), dtype=complex)
    for _ in range(_NEWTON_ITERATIONS):
        s = _branch_step(mu, n, delta, dw)
        mu -= s
        if np.all(abs(s) <= 1e-14 * abs(mu)):
            break
    else:
        return None
    t, delta = np.log(mu).astype(np.clongdouble), np.longdouble(delta)
    for _ in range(3):
        z, zw = n * t, 1j * theta + (n - 1) * t
        s = (np.expm1(z) - delta * np.expm1(zw)) / (n * np.exp(z) - delta * (n - 1) * np.exp(zw))
        t -= s
    t = t.astype(complex)
    log_lam = np.sort(np.concatenate([n * t, (n * t[: (n - 1) // 2]).conj()]))
    if np.all(abs(s) <= 2.0**-52 * abs(t)) and np.all(log_lam[1:] != log_lam[:-1]):
        return t


def _spectral_tail(model, x0, max_epochs, tol):
    """`_cyclic_tail` from the spectrum of C, or None outside its reach.

    For the permutation-invariant model at delta < 1 and e >= 1,
    x^e = Re sum_k c_k lambda_k^e v_k over `_cyclic_spectrum`'s branches
    (conjugates doubled; C's zero first column drops out): v_k,i = r_k^i,
    r_k = mu_k w^-k, and c_k = u_k'x0 / u_k'v_k by the left eigenvector
    u_k = (L+D)' J v_k, J reversing the order, with u_k'x0 = sum_j
    r^(n-1-j) ((L+D) x0)_j and u_k'v_k = n r^(n-1) + (1-delta)/(1-r)
    ((1-r^n)/(1-r) - n r^(n-1)).  Any f costs O(n^2), in 8 MB row blocks.
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
    t = _cyclic_spectrum(n, delta)
    if t is None:
        return None
    k, log_lam = np.arange(1, len(t) + 1), n * t
    unit = np.exp(-2j * np.pi * np.arange(n) / n)  # w^-j
    b = -(-n // -(-n * len(t) // 2**19))  # rows per block of about 8 MB of r_k^i
    R = np.exp(np.arange(b)[:, None] * t) * unit[np.arange(b)[:, None] * k % n]  # r_k^j, j < b

    def blocks():  # rows i.. of [Re V, Im V], V[i, k] = r_k^i: a complex gemv
        for i in range(0, n, b):  # stalled 8 ms in 2 of 10 processes on two threads
            V = R[: n - i] * (np.exp(i * t) * unit[i * k % n]) if i else R
            yield slice(i, i + b), np.hstack([V.real, V.imag])

    xt = x0.copy()
    xt[1:] += (1.0 - delta) * np.cumsum(x0)[:-1]
    num = sum(xt[::-1][r] @ W for r, W in blocks())
    r_last, one_r = np.exp((n - 1) * t) * unit[(n - 1) * k % n], -np.expm1(t - 2j * np.pi * k / n)
    c = (num[: len(t)] + 1j * num[len(t):]) * np.where(2 * k == n, 1.0, 2.0)
    c /= n * r_last + (1.0 - delta) / one_r * (-np.expm1(log_lam) / one_r - n * r_last)

    def f(epochs):
        a = c * np.exp(np.multiply.outer(np.asarray(epochs, dtype=float), log_lam))
        a, Y = np.hstack([a.real, -a.imag]), np.empty((len(a), n))
        for r, W in blocks():
            Y[:, r] = a @ W.T
        return objective(model, Y)

    xs = x0.tolist()
    _epoch_perm_invariant(xs, delta, range(n))
    f1, fe = objective(model, np.array(xs)), f([1])[0]
    if not abs(fe - f1) <= _SPECTRAL_RTOL * f1:
        return None
    rate = 2.0 * log_lam.real.max()
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
