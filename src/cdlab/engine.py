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
replicates one epoch at a time and holds the one copy of the start
checks, the stop at f <= tol or the epoch budget and the nonfinite-f
failure; its docstring lists the kernel each input takes.  For the
dense model the one epoch kernel, `_epoch_dense`, advances a stack of
matrices, each slice in its own order, a block of `_ROW_BLOCK` visited
rows per pair of batched products, with the blocks' triangular inverses
by squaring, not LAPACK.  It returns each slice's decrease of f, by which
`figure lu` carries E f of all its epoch products, cyclic and
permutation-ordered, between exact evaluations.  The cyclic order makes
every epoch the same map M, so when a block of at least two n x n maps
fits in about 1 MB (n <= 256) `_runs` builds M, M^2, ..., M^K once and
advances K epochs with one matrix-vector product, stopping at the first
epoch that reaches the tolerance.

A rate over the last epochs of a cyclic run needs only its stop epoch
and those epochs.  Where the block path would run, `_cyclic_tail` finds
both from the powers M^(2^j), built by squaring, in O(log L) matrix
products instead of L epochs; Table 1's cyclic column uses it, and its
random columns one `_runs` call per ordering.

Every f recorded here, by the row loop, the rpcd scan, the
block path and `_cyclic_tail`, is one float: `quadratic.objective`, or
its row form `_objective_rows` for a stack of iterates.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .quadratic import (
    PermInvariantQuadratic,
    QuadraticModel,
    _objective_rows,
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
# chunk holds up to 2048 // n epochs, 20 at n = 100 and one from n = 1025
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
    `quadratic.objective` or its row form.  For the permutation-invariant
    model that is a centred form that keeps its relative accuracy up to
    both edges of the delta window.  Exact line search never increases f
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
    arange(n), k = 1, 2, 4, ... up to `_ORDER_CHUNK` // n epochs; numpy
    gives the same rows, and leaves the same state, as k single-epoch
    calls.  For a replicate that leaves inside a chunk, `close` restores
    the state saved before it and redraws the epochs used.
    """

    def __init__(self, policy: OrderingPolicy, n: int, rng: np.random.Generator):
        self.kind, self.n, self.rng = policy.kind, n, rng
        self.fixed = np.arange(n) if policy.kind == "ccd" else None
        self.k = 1  # epochs of the next chunk
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
            self.k = min(2 * self.k, max(1, _ORDER_CHUNK // self.n))
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
    slice's decrease (1/2) sum_t ||r_t||^2 over its steps and columns.  The
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
    return 0.5 * np.einsum("snm,snm->s", steps, steps)


def _lower_toeplitz(v: np.ndarray, k: int) -> np.ndarray:
    """The square matrix T[i, j] = v[i - j - k] where i - j >= k, and 0 elsewhere."""
    t = np.arange(len(v))
    return np.where(t[:, None] - t >= k, v[t[:, None] - t - k], 0.0)


def _block_epochs(n: int) -> int:
    """Epoch-map powers per block at dimension n; below 2 the block path is off."""
    return min(_BLOCK_EPOCHS, _BLOCK_BYTES // (8 * n * n))


def _run_blocks(model, M, x, max_epochs, tol, fs) -> np.ndarray:
    """Advance up to max_epochs epochs of the fixed map M, K per product.

    The stack [M; M^2; ...; M^K] is built once, in place; each block
    computes the next K iterates from the current one as rows of
    (stack @ x) and their objectives in one expression.  Appends to fs
    up to the first epoch with f <= tol; returns the last iterate.
    """
    n = model.n
    K = min(_block_epochs(n), max_epochs)
    stack = np.empty((K, n, n))
    stack[0] = M
    for k in range(1, K):
        np.matmul(M, stack[k - 1], out=stack[k])
    stack = stack.reshape(K * n, n)
    epochs = 0
    while epochs < max_epochs:
        k = min(K, max_epochs - epochs)
        Y = (stack[: k * n] @ x).reshape(k, n)
        fk = _objective_rows(model, Y)
        stops = np.flatnonzero(~np.isfinite(fk) | (fk <= tol))
        j = int(stops[0]) if stops.size else k - 1
        fs.extend(fk[:j].tolist())
        if not np.isfinite(fk[j]):
            raise NumericalError(
                f"nonfinite objective after {(epochs + j + 1) * n} iterations", fs[-1]
            )
        fs.append(float(fk[j]))
        x = Y[j].copy()
        epochs += j + 1
        if stops.size:
            break
    return x


def _checked_start(model, x0, max_epochs, tol) -> np.ndarray:
    """A float copy of x0, after the input checks of `run`."""
    x = np.array(x0, dtype=float)
    if x.shape != (model.n,):
        raise ValueError(f"x0 has shape {x.shape}, expected ({model.n},)")
    if tol < 0:
        raise ValueError(f"tol must be >= 0, got {tol}")
    if max_epochs < 0:
        raise ValueError(f"max_epochs must be >= 0, got {max_epochs}")
    return x


def _runs(model, policy, starts, rngs, max_epochs, tol) -> list[Trajectory | NumericalError]:
    """`run` from each of `starts`, replicate r drawing its orders from rngs[r].

    Entry r is the Trajectory of run(model, policy, starts[r], max_epochs,
    tol, seed=rngs[r]), or the NumericalError that run would raise (same
    message and last_estimate); run's ValueError for any start is raised.
    Each epoch advances every active replicate once; a replicate leaves at
    its stop epoch, its first nonfinite f or the budget.  Its orders come
    from `_Orders`, a chunk of epochs per call of rngs[r]; when it leaves,
    rngs[r] is where drawing its orders one epoch per call leaves it, so
    one that takes no epoch draws nothing.  The kernel follows from the
    input:

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

    f at the start is `objective`.  After an epoch the stacked kernels
    take `_objective_rows` of the stepped rows, and the row loop takes it
    of two or more rows (one row is faster through `objective`, the same
    float); the dense kernel takes `objective` per row.
    """
    n = model.n
    perm_invariant = isinstance(model, PermInvariantQuadratic)
    X = np.array([_checked_start(model, x0, max_epochs, tol) for x0 in starts])
    X = X.reshape(len(starts), n)
    rows = list(X)  # views; indexing a list is cheaper than X[r] in the row loop
    orders = [_Orders(policy, n, rng) for rng in rngs]
    f0 = [objective(model, x) for x in rows]
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
            return _objective_rows(model, y).tolist()
    elif perm_invariant:
        delta = model.delta
        lists = [x.tolist() for x in rows]  # each iterate as floats between epochs

        def step(active):
            for r in active:
                _epoch_perm_invariant(lists[r], delta, orders[r].next().tolist())
                rows[r][:] = lists[r]
            if len(active) == 1:
                return [objective(model, rows[active[0]])]
            return _objective_rows(model, X[active]).tolist()
    else:
        def step(active):
            G = X[active, :, None]
            _epoch_dense(G, model.A, np.array([orders[r].next() for r in active]))
            X[active] = G[..., 0]
            return [objective(model, rows[r]) for r in active]

    # f as C doubles: lists of float objects, live for a whole stack of
    # runs, raised the peak RSS of a 40-pass table1 process by 0.9 MB
    fs = [array("d", (f,)) for f in f0]
    out = [None if math.isfinite(f) else NumericalError(f"nonfinite objective at start: {f}")
           for f in f0]
    active = [r for r, f in enumerate(f0) if out[r] is None and f > tol and max_epochs > 0]
    if policy.kind == "ccd" and _block_epochs(n) >= 2 and active:
        M = epoch_map(model)
        for r in active:
            try:
                rows[r][:] = _run_blocks(model, M, rows[r], max_epochs, tol, fs[r])
            except NumericalError as err:
                out[r] = err
        active = []
    for epoch in range(1, max_epochs + 1):
        if not active:
            break
        still = []
        for r, f in zip(active, step(active)):
            if not math.isfinite(f):
                out[r] = NumericalError(f"nonfinite objective after {epoch * n} iterations",
                                        fs[r][-1])
            else:
                fs[r].append(f)
                if f > tol:
                    still.append(r)
                    continue
            orders[r].close()
        active = still
    for r in active:
        orders[r].close()
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

    Records f after every epoch (`quadratic.objective`, or its row form
    `_objective_rows`; `_runs` says which) and stops as soon as
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
        On dimension mismatch or negative tol or max_epochs, whether or
        not an epoch runs.
    NumericalError
        If a nonfinite objective value is encountered.
    """
    (result,) = _runs(model, policy, [x0], [np.random.default_rng(seed)], max_epochs, tol)
    if isinstance(result, NumericalError):
        raise result
    return result


def _cyclic_tail(model, x0, max_epochs, tol) -> tuple[int, np.ndarray]:
    """Stop epoch L of the cyclic `run` from x0, and f at epochs max(0, L-10)..L.

    These are all a rate over the last `_RATE_WINDOW` = 10 epochs needs,
    and they come without stepping the L epochs: with M = epoch_map(model)
    the iterate after e epochs is M^e x0.  The powers P_j = M^(2^j) are
    built by squaring while 2^j <= max_epochs - 1 and f(P_j x0) > tol;
    f is nonincreasing along the run, so no larger jump could be taken,
    and capping there keeps the powers away from subnormals.  They take
    at most about log2(max_epochs) maps of 8n^2 bytes (19 maps, 1.5 MB at
    n = 100 and table1's 500,000-epoch budget; 10 MB at n = 256), which
    `_BLOCK_BYTES` does not bound.  A greedy descent over j, largest
    first, takes every jump x <- P_j x that keeps f > tol and
    e + 2^j <= max_epochs - 1.  It ends at the last epoch e with f > tol,
    so the run stops at L = e + 1 (or at the budget).  The iterate at
    L - 10 is rebuilt from x0 by the binary digits of L - 10 and stepped
    to L with M.

    f is `run`'s formula (`_objective_rows`).  L equals `run`'s (the first
    epoch with f <= tol, or max_epochs) and the returned f its f, up to
    the rounding of a different product of the same map.  Takes `run`'s
    inputs and raises as it does; NumericalError also when f at L - 1 and
    L does not bracket tol, which only rounding can cause.

    Squaring is used exactly where `run` would take the block path
    (`_block_epochs(n) >= 2`, n <= 256); above that this is `run` itself.
    Squaring wins beyond the cap (one cell from table1's start, delta =
    0.5, one BLAS thread: 0.03 s against 0.60 s stepping at n = 300, 0.82 s
    against 26 s at n = 1000), which stays for memory (185 MB at n = 1000).
    """
    if _block_epochs(model.n) < 2:
        traj = run(model, OrderingPolicy("ccd"), x0, max_epochs, tol)
        return traj.epochs, traj.f_per_epoch[-(_RATE_WINDOW + 1):]
    x0 = _checked_start(model, x0, max_epochs, tol)

    def f(y):
        value = _objective_rows(model, y)
        if not np.all(np.isfinite(value)):
            raise NumericalError(f"nonfinite objective on the cyclic run: {value}")
        return value

    f0 = f(x0)
    if f0 <= tol or max_epochs == 0:
        return 0, np.array([f0])
    last = max_epochs - 1  # the largest e whose f the descent may read
    M = epoch_map(model)
    powers = [M]
    while 2 ** len(powers) <= last and f(powers[-1] @ x0) > tol:
        powers.append(powers[-1] @ powers[-1])
    e, x = 0, x0
    for j in reversed(range(len(powers))):
        if e + 2**j <= last:
            y = powers[j] @ x
            if f(y) > tol:
                e, x = e + 2**j, y
    stop = e + 1
    start = stop - min(_RATE_WINDOW, stop)
    x = x0
    for j in reversed(range(len(powers))):
        if start >> j & 1:
            x = powers[j] @ x
    Y = np.empty((stop - start + 1, model.n))
    Y[0] = x
    for k in range(stop - start):
        Y[k + 1] = M @ Y[k]
    fs = f(Y)
    if not (fs[-2] > tol and (fs[-1] <= tol or stop == max_epochs)):
        raise NumericalError(
            f"f at epochs {stop - 1} and {stop} is {fs[-2]}, {fs[-1]}: it does not cross "
            f"tol={tol} there, so rounding decides the stop epoch", fs[-1])
    return stop, fs


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
