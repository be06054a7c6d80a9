"""Property tests over the whole delta window (0, n/(n-1)), edges included."""

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from cdlab import (
    DenseQuadratic,
    NumericalError,
    OrderingPolicy,
    PermInvariantQuadratic,
    build_log_uniform_spectrum,
    closed_form_C,
    empirical_rate,
    objective,
    rho_C,
    run,
)
from cdlab.engine import _ROW_BLOCK, _cyclic_tail, _epoch_dense, _rpcd_tails
from cdlab.quadratic import _objective_rows
from conftest import eig_radius, simulate_epoch


@st.composite
def fixed_order_runs(draw):
    """(model, policy, order, x0, epochs) for a fixed-order run."""
    n = draw(st.integers(2, 64))
    # delta = t * n/(n-1), with t pushed towards both open ends by a log scale
    gap = 10.0 ** draw(st.floats(-9.0, -0.3))
    t = draw(st.sampled_from([gap, 1.0 - gap]))
    model = PermInvariantQuadratic(n, t * n / (n - 1))
    if draw(st.booleans()):
        model = DenseQuadratic(model.matrix())
    if draw(st.booleans()):
        order = list(range(n))
        policy = OrderingPolicy("ccd")
    else:
        order = draw(st.permutations(range(n)))
        policy = OrderingPolicy.fixed_permutation(order)
    x0 = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal(n)
    return model, policy, order, x0, draw(st.integers(1, 40))


@settings(max_examples=150, deadline=None)
@given(fixed_order_runs())
def test_fixed_order_run_matches_step_oracle(case):
    model, policy, order, x0, epochs = case
    # f is compared on the scale of the terms it sums, (1/2)|x0|'|A||x0| <=
    # (1/2)||x0||_1^2: near either edge A is nearly singular, f(x^0) can be
    # far below that, and the map products of the block path then move f by
    # up to ~1e-11 f(x^0) while x stays within ~1e-13 ||x0||_inf.  The
    # iterate after k epochs is the final_x of a k-epoch run.
    traj = run(model, policy, x0, max_epochs=epochs, tol=0.0)
    f_scale, x_scale = 0.5 * np.abs(x0).sum() ** 2, np.abs(x0).max()
    assert traj.epochs == epochs or traj.f_per_epoch[-1] == 0.0
    x_ref = x0
    for k, f in enumerate(traj.f_per_epoch[1:], start=1):
        x_ref = simulate_epoch(model, x_ref, order)
        x = run(model, policy, x0, max_epochs=k, tol=0.0).final_x
        assert abs(f - objective(model, x_ref)) <= 1e-12 * f_scale
        assert np.abs(x - x_ref).max() <= 1e-12 * x_scale


@settings(max_examples=150, deadline=None)
@given(fixed_order_runs())
def test_fixed_order_run_nonincreasing_up_to_rounding(case):
    # f may rise only by the rounding error of evaluating (1/2) x'Ax with
    # |A_ij| <= 1, about n*eps*||x||_1^2.  Near either edge of the window A is
    # nearly singular, and that error exceeds 1e-10 f(x^0) on the block path
    # and on the per-coordinate loop alike.
    model, policy, _, x0, epochs = case
    traj = run(model, policy, x0, max_epochs=epochs, tol=0.0)
    iterates = [run(model, policy, x0, max_epochs=k, tol=0.0).final_x for k in range(traj.epochs)]
    slack = [2 * model.n * np.finfo(float).eps * np.abs(x).sum() ** 2 for x in iterates]
    assert np.all(np.diff(traj.f_per_epoch) <= slack)


@st.composite
def window_points(draw):
    """(n, delta) over the whole window, edges and both sides of delta = 1 included."""
    n = draw(st.integers(2, 200))
    if draw(st.booleans()):
        gap = 10.0 ** draw(st.floats(-12.0, np.log10(0.5)))
        delta = draw(st.sampled_from([gap, 1.0 - gap])) * n / (n - 1)
    else:
        delta = 1.0 + draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** -draw(st.integers(1, 15))
        assume(delta < n / (n - 1))
    return n, delta


@settings(max_examples=200, deadline=None)
@given(window_points())
def test_rho_C_matches_eigvals(point):
    n, delta = point
    rho = rho_C(n, delta)
    ref = eig_radius(closed_form_C(n, delta))
    assert abs(rho - ref) <= 1e-11 * rho + 1e-13
    assert rho_C(n, 1.0) == 0.0


@settings(max_examples=200, deadline=None)
@given(window_points(), st.booleans(), st.integers(0, 2**32 - 1))
def test_objective_of_an_iterate_equals_objective_of_its_row(point, dense, seed):
    # `run` records f through `objective` on the loop and `_objective_rows`
    # on the block path; both must be the one formula
    n, delta = point
    model = PermInvariantQuadratic(n, delta)
    if dense:
        model = DenseQuadratic(model.matrix())
    x = np.random.default_rng(seed).standard_normal(n)
    f = objective(model, x)
    assert abs(_objective_rows(model, x[None])[0] - f) <= 1e-14 * f


@st.composite
def cyclic_cases(draw):
    """(model, x0, max_epochs, tol) for table1's cyclic column, up to 1e-12 below the edge."""
    n = draw(st.integers(2, 64))
    top = (1.0 - 1e-12) * n / (n - 1)
    delta = draw(st.one_of(
        st.floats(0.0, top, exclude_min=True),
        st.floats(-300.0, -0.3).map(lambda e: 10.0**e),
        st.sampled_from([5e-324, 1.0, top]),
    ))
    x0 = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal(n)
    max_epochs = draw(st.sampled_from([0, 1, 5, 10, 11, 12, 300]))
    return PermInvariantQuadratic(n, delta), x0, max_epochs, draw(st.sampled_from([1e-14, 1e-8, 1e-3]))


def _rate_or_none(f):
    try:
        return empirical_rate(f)
    except ValueError:
        return None


@settings(max_examples=300, deadline=None)
@given(cyclic_cases())
def test_cyclic_tail_matches_run(case):
    # the stop epoch, whether the rate window is usable, and the rate
    model, x0, max_epochs, tol = case
    traj = run(model, OrderingPolicy("ccd"), x0, max_epochs=max_epochs, tol=tol)
    stop, f_tail = _cyclic_tail(model, x0, max_epochs, tol)
    assert stop == traj.epochs
    assert len(f_tail) == min(stop, 10) + 1
    rate, tail_rate = _rate_or_none(traj), _rate_or_none(f_tail)
    assert (rate is None) == (tail_rate is None)
    if rate is not None:
        assert abs(tail_rate - rate) <= 1e-12 * rate


@st.composite
def rpcd_batches(draw):
    """(model, starts, seeds, max_epochs, tol) for a batch of rpcd replicates.

    One start may be nonfinite, so its replicate fails at epoch 0.
    """
    n = draw(st.integers(2, 64))
    gap = 10.0 ** draw(st.floats(-9.0, -0.3))
    t = draw(st.sampled_from([gap, 1.0 - gap]))
    model = PermInvariantQuadratic(n, t * n / (n - 1))
    replicates = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    starts = np.random.default_rng(seed).standard_normal((replicates, n))
    if draw(st.booleans()):
        starts[draw(st.integers(0, replicates - 1)), 0] = draw(st.sampled_from([np.nan, np.inf]))
    seeds = [[seed, r] for r in range(replicates)]
    max_epochs = draw(st.integers(0, 300))
    return model, starts, seeds, max_epochs, 10.0 ** draw(st.floats(-14.0, -1.0))


def _rngs(seeds):
    return [np.random.default_rng(s) for s in seeds]


@settings(max_examples=200, deadline=None)
@given(rpcd_batches())
def test_rpcd_batch_matches_run(case):
    # the same generators give the same orders, so the batch must stop each
    # replicate where `run` does, fail the same ones, and give its rate; f
    # is compared where rounding of a different sum cannot dominate it
    model, starts, seeds, max_epochs, tol = case
    with np.errstate(invalid="ignore"):  # f of a nonfinite start
        tails = _rpcd_tails(model, starts, _rngs(seeds), max_epochs, tol)
    for x0, rng, tail in zip(starts, _rngs(seeds), tails):
        try:
            with np.errstate(invalid="ignore"):
                traj = run(model, OrderingPolicy("rpcd"), x0, max_epochs=max_epochs, tol=tol,
                           seed=rng)
        except NumericalError:
            assert tail is None
            continue
        stop, f_tail = tail
        assert stop == traj.epochs
        f_run = traj.f_per_epoch[-len(f_tail):]
        assert len(f_tail) == min(stop, 10) + 1
        big = f_run >= 1e-10 * traj.f_per_epoch[0]
        assert np.all(np.abs(f_tail - f_run)[big] <= 1e-11 * f_run[big])
        rate, tail_rate = _rate_or_none(traj), _rate_or_none(f_tail)
        assert (rate is None) == (tail_rate is None)
        if rate is not None:
            assert abs(tail_rate - rate) <= 1e-12 * rate


@settings(max_examples=100, deadline=None)
@given(rpcd_batches())
def test_rpcd_batch_epoch_matches_closed_form_C(case):
    # one epoch in visit order p is x[p] <- C x[p], C the closed form of
    # every order's epoch map, so f after one batched epoch is f of that
    model, starts, seeds, _, _ = case
    finite = np.all(np.isfinite(starts), axis=1)
    starts, seeds = starts[finite], [s for s, keep in zip(seeds, finite) if keep]
    C = closed_form_C(model.n, model.delta)
    for x0, rng, (stop, f_tail) in zip(starts, _rngs(seeds),
                                       _rpcd_tails(model, starts, _rngs(seeds), 1, 0.0)):
        p = rng.permutation(model.n)
        x = x0.copy()
        x[p] = C @ x0[p]
        f = objective(model, x)
        assert stop == 1
        if f >= 1e-10 * f_tail[0]:
            assert abs(f_tail[-1] - f) <= 1e-11 * f


@st.composite
def dense_stacks(draw):
    """(model, G, orders) for one epoch of the dense kernel on an (S, n, m) stack.

    The model is a log-uniform dense one or the permutation-invariant one
    with delta near either edge of its window.  Each slice has its own
    order: a permutation, or n rcd draws from a pool of k rows.  A pool
    smaller than the row block repeats rows inside one block and, once n
    exceeds the block, across blocks too; k = n is a plain rcd draw.
    """
    b = _ROW_BLOCK
    n = draw(st.one_of(st.integers(2, 64), st.sampled_from([b - 1, b, b + 1, 2 * b, 3 * b - 1])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        model = build_log_uniform_spectrum(n, 10.0 ** draw(st.floats(0.5, 6.0)), rng)
    else:
        gap = 10.0 ** draw(st.floats(-9.0, -0.3))
        model = PermInvariantQuadratic(n, draw(st.sampled_from([gap, 1.0 - gap])) * n / (n - 1))
    S, m = draw(st.integers(1, 4)), draw(st.sampled_from([1, 3]))
    orders = []
    for _ in range(S):
        if draw(st.booleans()):
            orders.append(draw(st.permutations(range(n))))
        else:
            pool = rng.choice(n, size=min(n, draw(st.sampled_from([1, 2, 3, n]))), replace=False)
            orders.append(pool[rng.integers(0, len(pool), n)])
    return model, rng.standard_normal((S, n, m)), np.array(orders)


@settings(max_examples=200, deadline=None)
@given(dense_stacks())
def test_dense_kernel_matches_step_oracle(case):
    # every column of every slice must take the epoch the step API takes
    # in that slice's order, to 1e-12 of the column's scale
    model, G0, orders = case
    G = G0.copy()
    _epoch_dense(G, model.matrix(), orders)
    for s, order in enumerate(orders):
        for k in range(G.shape[2]):
            ref = simulate_epoch(model, G0[s, :, k], order.tolist())
            assert np.abs(G[s, :, k] - ref).max() <= 1e-12 * np.abs(G0[s, :, k]).max()
