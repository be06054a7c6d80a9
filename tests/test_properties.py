"""Property tests over the whole delta window (0, n/(n-1)), edges included."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cdlab import (
    DenseQuadratic,
    NumericalError,
    OrderingPolicy,
    PermInvariantQuadratic,
    brute_force_abar,
    build_log_uniform_spectrum,
    closed_form_C,
    empirical_rate,
    epoch_map,
    evolve,
    objective,
    recurrence_coeffs,
    rho_C,
    run,
)
from cdlab.engine import (
    _ROW_BLOCK, _cyclic_tail, _epoch_dense, _runs, _unit_lower_inverse,
)
from conftest import eig_radius, relabel, simulate_epoch


@st.composite
def fixed_order_runs(draw):
    """(model, order, x0, epochs) for a run visiting `order` every epoch.

    The run is `ccd` on relabel(model, order) from x0[order]: its iterates
    are those of `model` visited in `order`, relabelled.
    """
    n = draw(st.integers(2, 64))
    # delta = t * n/(n-1), with t pushed towards both open ends by a log scale
    gap = 10.0 ** draw(st.floats(-9.0, -0.3))
    t = draw(st.sampled_from([gap, 1.0 - gap]))
    model = PermInvariantQuadratic(n, t * n / (n - 1))
    if draw(st.booleans()):
        model = DenseQuadratic(model.matrix())
    order = list(range(n)) if draw(st.booleans()) else draw(st.permutations(range(n)))
    x0 = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal(n)
    return model, np.array(order), x0, draw(st.integers(1, 40))


@settings(max_examples=150, deadline=None)
@given(fixed_order_runs())
def test_fixed_order_run_matches_step_oracle(case):
    model, order, x0, epochs = case
    # f is compared on the scale of the terms it sums, (1/2)|x0|'|A||x0| <=
    # (1/2)||x0||_1^2: near either edge A is nearly singular, f(x^0) can be
    # far below that, and the map products of the block path then move f by
    # up to ~1e-11 f(x^0) while x stays within ~1e-13 ||x0||_inf.  The
    # iterate after k epochs is the final_x of a k-epoch run.
    cyclic, ccd = relabel(model, order), OrderingPolicy("ccd")
    traj = run(cyclic, ccd, x0[order], max_epochs=epochs, tol=0.0)
    f_scale, x_scale = 0.5 * np.abs(x0).sum() ** 2, np.abs(x0).max()
    assert traj.epochs == epochs or traj.f_per_epoch[-1] == 0.0
    x_ref = x0
    for k, f in enumerate(traj.f_per_epoch[1:], start=1):
        x_ref = simulate_epoch(model, x_ref, order)
        x = run(cyclic, ccd, x0[order], max_epochs=k, tol=0.0).final_x
        assert abs(f - objective(model, x_ref)) <= 1e-12 * f_scale
        assert np.abs(x - x_ref[order]).max() <= 1e-12 * x_scale


@settings(max_examples=150, deadline=None)
@given(fixed_order_runs())
def test_fixed_order_run_nonincreasing_up_to_rounding(case):
    # f may rise only by the rounding error of evaluating (1/2) x'Ax with
    # |A_ij| <= 1, about n*eps*||x||_1^2.  Near either edge of the window A is
    # nearly singular, and that error exceeds 1e-10 f(x^0) on the block path
    # and on the per-coordinate loop alike.
    model, order, x0, epochs = case
    cyclic, ccd = relabel(model, order), OrderingPolicy("ccd")
    traj = run(cyclic, ccd, x0[order], max_epochs=epochs, tol=0.0)
    iterates = [run(cyclic, ccd, x0[order], max_epochs=k, tol=0.0).final_x
                for k in range(traj.epochs)]
    slack = [2 * model.n * np.finfo(float).eps * np.abs(x).sum() ** 2 for x in iterates]
    assert np.all(np.diff(traj.f_per_epoch) <= slack)


@st.composite
def window_points(draw, max_n=200):
    """(n, delta) over the whole window, edges and both sides of delta = 1 included."""
    n = draw(st.integers(2, max_n))
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
@given(window_points(), st.booleans(), st.integers(0, 2**32 - 1), st.integers(2, 6),
       st.integers(2, 4))
def test_objective_of_an_iterate_equals_objective_of_its_row(point, dense, seed, rows, blocks):
    # `run` records f of one iterate and `_runs` of a stack of them, both
    # through `objective`: each row of any stack must be the float its
    # iterate gives alone, or a stack would not equal its runs
    n, delta = point
    model = PermInvariantQuadratic(n, delta)
    if dense:
        model = DenseQuadratic(model.matrix())
    X = np.random.default_rng(seed).standard_normal((blocks, rows, n))
    for stack in (X[0, :1], X[0], X):
        f = objective(model, stack)
        assert f.shape == stack.shape[:-1]
        for idx in np.ndindex(f.shape):
            one = objective(model, stack[idx])
            assert type(one) is float and f[idx] == one


@settings(max_examples=300, deadline=None)
@given(window_points(64), st.sampled_from(["rcd", "rpcd"]), st.integers(0, 2**32 - 1),
       st.integers(1, 40))
def test_random_order_run_matches_step_oracle(point, kind, seed, epochs):
    # one start takes the row loop for both random orders; the oracle steps
    # the public step API in the orders of one rng.integers(0, n, size=n)
    # (rcd) or rng.permutation(n) (rpcd) per epoch from an identically
    # seeded generator, held to the bounds of the fixed-order test
    n, delta = point
    model, policy = PermInvariantQuadratic(n, delta), OrderingPolicy(kind)
    x0 = np.random.default_rng(seed).standard_normal(n)
    traj = run(model, policy, x0, max_epochs=epochs, tol=0.0, seed=[seed, 1])
    f_scale, x_scale = 0.5 * np.abs(x0).sum() ** 2, np.abs(x0).max()
    assert traj.epochs == epochs or traj.f_per_epoch[-1] == 0.0
    rng, x_ref = np.random.default_rng([seed, 1]), x0
    for k, f in enumerate(traj.f_per_epoch[1:], start=1):
        order = rng.integers(0, n, size=n) if kind == "rcd" else rng.permutation(n)
        x_ref = simulate_epoch(model, x_ref, order)
        x = run(model, policy, x0, max_epochs=k, tol=0.0, seed=[seed, 1]).final_x
        assert abs(f - objective(model, x_ref)) <= 1e-12 * f_scale
        assert np.abs(x - x_ref).max() <= 1e-12 * x_scale


@st.composite
def cyclic_cases(draw):
    """(model, x0, max_epochs, tol) for table1's cyclic column, up to 1e-12 below the edge.

    Some starts hold a nan or infinite entry, and some have f(x0) = tol exactly.
    """
    n = draw(st.integers(2, 64))
    top = (1.0 - 1e-12) * n / (n - 1)
    delta = draw(st.one_of(
        st.floats(0.0, top, exclude_min=True),
        st.floats(-300.0, -0.3).map(lambda e: 10.0**e),
        st.sampled_from([5e-324, 1.0, top]),
    ))
    model = PermInvariantQuadratic(n, delta)
    x0 = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal(n)
    max_epochs = draw(st.sampled_from([0, 1, 5, 10, 11, 12, 300]))
    tol = draw(st.sampled_from([1e-14, 1e-8, 1e-3]))
    start = draw(st.sampled_from(("gaussian",) * 3 + ("nonfinite", "f at tol")))
    if start == "nonfinite":
        x0[draw(st.integers(0, n - 1))] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    elif start == "f at tol":
        tol = objective(model, x0)
    return model, x0, max_epochs, tol


def _rate_or_none(f):
    try:
        return empirical_rate(f)
    except ValueError:
        return None


def _outcome(call, *args):
    """(call(*args), None), or (None, (type, message, last_estimate)) of its NumericalError."""
    try:
        return call(*args), None
    except NumericalError as err:
        return None, (type(err), str(err), err.last_estimate)


@settings(max_examples=300, deadline=None)
@given(cyclic_cases())
def test_cyclic_tail_matches_run(case):
    # the error raised, or the stop epoch, whether the rate window is usable, and the rate
    model, x0, max_epochs, tol = case
    with np.errstate(invalid="ignore"):  # f of an infinite entry is inf - inf
        traj, error = _outcome(run, model, OrderingPolicy("ccd"), x0, max_epochs, tol)
        tail, tail_error = _outcome(_cyclic_tail, model, x0, max_epochs, tol)
    assert tail_error == error
    if error is not None:
        return
    stop, f_tail = tail
    assert stop == traj.epochs
    assert len(f_tail) == min(stop, 10) + 1
    rate, tail_rate = _rate_or_none(traj), _rate_or_none(f_tail)
    assert (rate is None) == (tail_rate is None)
    if rate is not None:
        assert abs(tail_rate - rate) <= 1e-12 * rate


@st.composite
def edge_points(draw, max_n):
    """(n, delta) with n in [2, max_n] and delta = t n/(n-1), t log-close to 0 or to 1."""
    n = draw(st.integers(2, max_n))
    gap = 10.0 ** draw(st.floats(-9.0, -0.3))
    return n, draw(st.sampled_from([gap, 1.0 - gap])) * n / (n - 1)


@st.composite
def run_stacks(draw, variant="rpcd", dense=False):
    """(model, policy, starts, seeds, max_epochs, tol) for 2-6 replicates of one ordering.

    With more than one start, rpcd on the permutation-invariant model takes
    the blocked scan of `_runs`, drawn up to n = 300 (m = 17 blocks of 18,
    the last padded; `test_rpcd_stack_matches_run_at_every_n` goes to
    3000); rcd takes its row loop, and a dense model `_epoch_dense` on a
    stack of columns, both at n <= 64.  One start may be nonfinite, so its
    replicate fails at epoch 0.
    """
    stacked = variant == "rpcd" and not dense
    n, delta = draw(edge_points(300 if stacked else 64))
    model = PermInvariantQuadratic(n, delta)
    if dense:
        model = DenseQuadratic(model.matrix())
    replicates = draw(st.integers(2, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    starts = np.random.default_rng(seed).standard_normal((replicates, n))
    if draw(st.booleans()):
        starts[draw(st.integers(0, replicates - 1)), 0] = draw(st.sampled_from([np.nan, np.inf]))
    seeds = [[seed, r] for r in range(replicates)]
    max_epochs = draw(st.integers(0, 300))
    return (model, OrderingPolicy(variant), starts, seeds, max_epochs,
            10.0 ** draw(st.floats(-14.0, -1.0)))


def _rngs(seeds):
    return [np.random.default_rng(s) for s in seeds]


@settings(max_examples=200, deadline=None)
@given(st.one_of(run_stacks(), run_stacks("rcd"), run_stacks("rpcd", dense=True),
                 run_stacks("rcd", dense=True)))
def test_rpcd_batch_matches_run(case):
    # the same generators give the same orders, so each replicate of a stack
    # must stop where its own `run` does, fail as it does and give its rate;
    # the rcd row loop is `run` bit for bit.  f is compared where rounding
    # of a different sum cannot dominate it
    model, policy, starts, seeds, max_epochs, tol = case
    with np.errstate(invalid="ignore"):  # f of a nonfinite start
        trajs = _runs(model, policy, starts, _rngs(seeds), max_epochs, tol)
    row_loop = isinstance(model, PermInvariantQuadratic) and policy.kind == "rcd"
    for x0, rng, traj in zip(starts, _rngs(seeds), trajs):
        try:
            with np.errstate(invalid="ignore"):
                ref = run(model, policy, x0, max_epochs=max_epochs, tol=tol, seed=rng)
        except NumericalError as err:
            assert isinstance(traj, NumericalError) and str(traj) == str(err)
            assert traj.last_estimate == err.last_estimate
            continue
        if row_loop:
            assert np.array_equal(traj.f_per_epoch, ref.f_per_epoch)
            assert np.array_equal(traj.final_x, ref.final_x)
            continue
        assert traj.epochs == ref.epochs
        f, f_ref = traj.f_per_epoch, ref.f_per_epoch
        big = f_ref >= 1e-10 * f_ref[0]
        assert np.all(np.abs(f - f_ref)[big] <= 1e-11 * f_ref[big])
        rate, stack_rate = _rate_or_none(ref), _rate_or_none(traj)
        assert (rate is None) == (stack_rate is None)
        if rate is not None:
            assert abs(stack_rate - rate) <= 1e-12 * rate


@st.composite
def rpcd_stacks(draw):
    """(model, starts, seed, max_epochs, tol): 2-20 rpcd starts at n in [2, 3000].

    delta is t n/(n-1) with t log-close to 0 or to 1, exactly 1 (A = I), or
    the largest float below n/(n-1).  The budget keeps replicates * n *
    epochs under about 2e5 coordinate steps.
    """
    n = draw(st.integers(2, 3000))
    top, gap = n / (n - 1), 10.0 ** draw(st.floats(-9.0, -0.3))
    delta = draw(st.sampled_from([gap * top, (1.0 - gap) * top, 1.0, np.nextafter(top, 0.0)]))
    replicates, seed = draw(st.integers(2, 20)), draw(st.integers(0, 2**32 - 1))
    starts = np.random.default_rng(seed).standard_normal((replicates, n))
    max_epochs = draw(st.integers(0, max(1, 200_000 // (n * replicates))))
    return (PermInvariantQuadratic(n, delta), starts, seed, max_epochs,
            10.0 ** draw(st.floats(-14.0, -1.0)))


@settings(max_examples=150, deadline=None)
@given(rpcd_stacks())
def test_rpcd_stack_matches_run_at_every_n(case):
    # each replicate of the scan is `run` from its start and generator: the
    # same stop epoch and generator state, and every f within 1e-12 relative
    # plus what rounding the iterate allows.  A relative change eps' of x
    # moves f by up to 2 eps' sqrt(cond(A)) f, and two roundings of the same
    # length-n sums differ by some sqrt(n) eps.  cond(A) is large only near
    # the edges: near n/(n-1) the row loop itself is 2e-12 off a 40-digit
    # run at n = 3, t = 1 - 1e-9
    model, starts, seed, max_epochs, tol = case
    n, delta, eps = model.n, model.delta, np.finfo(float).eps
    lam = float(n - (n - 1) * Fraction(delta))  # the eigenvalue along ones, without cancellation
    rtol = 1e-12 + 2.0 * eps * math.sqrt(n * max(delta, lam) / min(delta, lam))
    rngs = _rngs([[seed, r] for r in range(len(starts))])
    trajs = _runs(model, OrderingPolicy("rpcd"), starts, rngs, max_epochs, tol)
    for r, (x0, traj) in enumerate(zip(starts, trajs)):
        rng = np.random.default_rng([seed, r])
        ref = run(model, OrderingPolicy("rpcd"), x0, max_epochs=max_epochs, tol=tol, seed=rng)
        assert traj.epochs == ref.epochs
        assert np.all(np.abs(traj.f_per_epoch - ref.f_per_epoch) <= rtol * ref.f_per_epoch)
        assert rngs[r].bit_generator.state == rng.bit_generator.state


@settings(max_examples=100, deadline=None)
@given(run_stacks())
def test_rpcd_batch_epoch_matches_closed_form_C(case):
    # one epoch in visit order p is x[p] <- C x[p], C the closed form of
    # every order's epoch map, so f after one stacked epoch is f of that
    model, policy, starts, seeds, _, _ = case
    C = closed_form_C(model.n, model.delta)
    with np.errstate(invalid="ignore"):
        trajs = _runs(model, policy, starts, _rngs(seeds), 1, 0.0)
    for x0, rng, traj in zip(starts, _rngs(seeds), trajs):
        if isinstance(traj, NumericalError):
            assert not np.all(np.isfinite(x0))
            continue
        p = rng.permutation(model.n)
        x = x0.copy()
        x[p] = C @ x0[p]
        f = objective(model, x)
        assert traj.epochs == 1
        if f >= 1e-10 * traj.f_per_epoch[0]:
            assert abs(traj.f_per_epoch[-1] - f) <= 1e-11 * f


@settings(max_examples=200, deadline=None)
@given(edge_points(64), st.data())
def test_closed_form_C_is_every_orders_epoch_map(point, data):
    # the epoch map in visit order p is C scattered to rows and columns p
    n, delta = point
    p = data.draw(st.permutations(range(n)))
    C = closed_form_C(n, delta)
    expected = np.empty_like(C)
    expected[np.ix_(p, p)] = C
    got = epoch_map(PermInvariantQuadratic(n, delta), p)
    assert np.abs(got - expected).max() <= 1e-12 * np.abs(C).max()


@settings(max_examples=100, deadline=None)
@given(edge_points(5), st.integers(0, 3))
def test_recurrence_equals_brute_force(point, t):
    # the permutation average after t epochs is eta I + nu 11'; compared in
    # absolute terms, on the scale of A's entries (|A_ij| <= 1), because the
    # float brute force cancels as delta -> 0
    n, delta = point
    eta, nu = evolve(recurrence_coeffs(n, delta), delta, t)[-1]
    closed = eta * np.eye(n) + nu * np.ones((n, n))
    assert np.abs(brute_force_abar(n, delta, t) - closed).max() <= 1e-12


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
    # in that slice's order, to 1e-12 of the column's scale, and the
    # returned decrease must be the slice's f before minus f after, summed
    # over its columns, to 1e-12 of the start's scale (1/2)||x0||_1^2
    model, G0, orders = case
    G = G0.copy()
    decrease = _epoch_dense(G, model.matrix(), orders)
    assert decrease.shape == (len(orders),)
    for s, order in enumerate(orders):
        for k in range(G.shape[2]):
            ref = simulate_epoch(model, G0[s, :, k], order.tolist())
            assert np.abs(G[s, :, k] - ref).max() <= 1e-12 * np.abs(G0[s, :, k]).max()
        f_drop = sum(objective(model, G0[s, :, k]) - objective(model, G[s, :, k])
                     for k in range(G.shape[2]))
        f_scale = 0.5 * (np.abs(G0[s]).sum(axis=0) ** 2).sum()
        assert abs(decrease[s] - f_drop) <= 1e-12 * f_scale


@pytest.mark.parametrize("condition", [1e2, 1e4, 1e6, 1e8])
@pytest.mark.parametrize("b", [1, 2, 3, 5, _ROW_BLOCK, 9, 16])
def test_unit_lower_inverse_matches_lapack(b, condition):
    # the blocks (I + L_R) of `_epoch_dense`, from permutations and rcd draws
    # on log-uniform spectra: squaring must give LAPACK's inverse to 1e-14
    # of each inverse's largest entry (it read <= 1.7e-15 up to b = 16)
    n = 64
    for seed in range(3):
        A = build_log_uniform_spectrum(n, condition, seed).A
        rng = np.random.default_rng(seed)
        R = np.array([rng.permutation(n) for _ in range(3)]
                     + [rng.integers(0, n, n) for _ in range(3)])
        R = R[:, : n // b * b].reshape(len(R), -1, b)
        N = np.tril(A[R[..., :, None], R[..., None, :]], -1)
        ref = np.linalg.inv(np.eye(b) + N)
        err = np.abs(_unit_lower_inverse(N) - ref).max(axis=(-2, -1))
        assert np.all(err <= 1e-14 * np.abs(ref).max(axis=(-2, -1)))
