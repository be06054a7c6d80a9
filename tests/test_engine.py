import dataclasses
import math

import numpy as np
import pytest

from cdlab import (
    ORDERINGS,
    DenseQuadratic,
    NumericalError,
    OrderingPolicy,
    PermInvariantQuadratic,
    apply_coordinate_step,
    build_log_uniform_spectrum,
    closed_form_C,
    coordinate_gradient,
    derive_seed,
    epoch_map,
    expected_over_x0,
    empirical_rate,
    init_state,
    objective,
    run,
)
import cdlab.engine as engine
import cdlab.spectrum as spectrum
from cdlab.engine import (
    _ORDER_CHUNK,
    _block_epochs,
    _cyclic_tail,
    _epoch_perm_invariant,
    _runs,
)
from conftest import relabel, simulate_epoch


class TestOrderingPolicy:
    def test_orderings_are_the_only_names(self):
        assert ORDERINGS == ("ccd", "rcd", "rpcd")
        for kind in ORDERINGS:
            assert OrderingPolicy(kind).kind == kind
        for kind in ("cyclic", "random_with_replacement", "random_permutation",
                     "fixed_permutation", "bogus"):
            with pytest.raises(ValueError):
                OrderingPolicy(kind)
        assert [field.name for field in dataclasses.fields(OrderingPolicy)] == ["kind"]


class TestRun:
    def test_reaches_reference_tolerance(self):
        # cyclic descent on (n=100, delta=0.05) from a Gaussian start
        rng = np.random.default_rng(5)
        model = PermInvariantQuadratic(100, 0.05)
        traj = run(model, OrderingPolicy("ccd"), rng.standard_normal(100), tol=1e-8, seed=0)
        f = traj.f_per_epoch
        assert f[-1] <= 1e-8
        assert np.all(np.diff(f) <= 0.0)
        assert np.all(f >= 0.0)

    def test_start_at_minimizer_returns_immediately(self):
        traj = run(PermInvariantQuadratic(8, 0.3), OrderingPolicy("rcd"), np.zeros(8), seed=1)
        assert traj.epochs == 0
        assert np.array_equal(traj.f_per_epoch, [0.0])

    def test_single_step_from_alternating_point(self):
        # one iteration from the alternating-sign point improves f by
        # exactly 1 - delta/n, whatever coordinate is updated
        model = PermInvariantQuadratic(4, 0.1)
        x = np.array([1.0, -1.0, 1.0, -1.0])
        for i in range(4):
            state = init_state(model, x)
            apply_coordinate_step(model, state, i, coordinate_gradient(model, state, i))
            assert objective(model, state.x) == pytest.approx(0.195, abs=1e-15)

    def test_deterministic_bitwise(self):
        model = PermInvariantQuadratic(30, 0.2)
        rng = np.random.default_rng(3)
        x0 = rng.standard_normal(30)
        for variant in ("rcd", "rpcd"):
            a = run(model, OrderingPolicy(variant), x0, max_epochs=50, tol=0.0, seed=42)
            b = run(model, OrderingPolicy(variant), x0, max_epochs=50, tol=0.0, seed=42)
            assert np.array_equal(a.f_per_epoch, b.f_per_epoch)
            assert np.array_equal(a.final_x, b.final_x)

    def test_monotone_descent_all_policies(self):
        rng = np.random.default_rng(9)
        dense = build_log_uniform_spectrum(15, 50.0, 2)
        for model in (PermInvariantQuadratic(15, 0.08), dense):
            for variant in ("ccd", "rcd", "rpcd"):
                x0 = rng.standard_normal(15) * 3
                traj = run(model, OrderingPolicy(variant), x0, max_epochs=200, tol=0.0, seed=7)
                assert np.all(np.diff(traj.f_per_epoch) <= 0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            run(PermInvariantQuadratic(4, 0.5), OrderingPolicy("ccd"), np.zeros(5))

    def test_negative_tol_rejected(self):
        with pytest.raises(ValueError):
            run(PermInvariantQuadratic(4, 0.5), OrderingPolicy("ccd"), np.zeros(4), tol=-1.0)

    def test_negative_max_epochs_rejected(self):
        model = PermInvariantQuadratic(4, 0.5)
        for variant in ("ccd", "rpcd"):
            with pytest.raises(ValueError):
                run(model, OrderingPolicy(variant), np.ones(4), max_epochs=-1)
        traj = run(model, OrderingPolicy("ccd"), np.ones(4), max_epochs=0)
        assert traj.epochs == 0

    @pytest.mark.parametrize("max_epochs, tol, message", [
        (5, math.nan, "tol must be >= 0, got nan"),
        (2.5, 1e-8, "max_epochs must be an integer >= 0, got 2.5"),
        (5.0, 1e-8, "max_epochs must be an integer >= 0, got 5.0"),
        (math.inf, 1e-8, "max_epochs must be an integer >= 0, got inf")],
        ids=["tol_nan", "budget_2.5", "budget_5.0", "budget_inf"])
    def test_nan_tol_and_non_integer_budget_rejected_on_every_kernel(self, max_epochs, tol,
                                                                     message):
        # n = 10 takes the ccd block path and n = 300 the row loop; two rpcd
        # starts take the scan, and the dense model `_epoch_dense`.  Before,
        # tol = nan returned a zero-epoch run and the budgets ran, or raised
        # TypeError on the block path
        dense = build_log_uniform_spectrum(10, 100.0, 3)
        cases = [(PermInvariantQuadratic(n, 0.5), kind, 1) for n in (10, 300) for kind in ORDERINGS]
        cases += [(PermInvariantQuadratic(10, 0.5), "rpcd", 2)]
        cases += [(dense, kind, 1) for kind in ORDERINGS]
        for model, kind, count in cases:
            starts = [np.ones(model.n)] * count
            rngs = [np.random.default_rng(r) for r in range(count)]
            with pytest.raises(ValueError) as err:
                if count == 1:
                    run(model, OrderingPolicy(kind), starts[0], max_epochs=max_epochs, tol=tol)
                else:
                    _runs(model, OrderingPolicy(kind), starts, rngs, max_epochs, tol)
            assert str(err.value) == message

    def test_nonfinite_start_raises(self):
        x0 = np.full(4, np.nan)
        with pytest.raises(NumericalError):
            run(PermInvariantQuadratic(4, 0.5), OrderingPolicy("ccd"), x0)

    def test_final_x_after_each_epoch(self):
        # run(..., max_epochs=k).final_x is the iterate after k epochs
        model = PermInvariantQuadratic(6, 0.4)
        traj = run(model, OrderingPolicy("ccd"), np.ones(6), max_epochs=3, tol=0.0)
        for k, f in enumerate(traj.f_per_epoch):
            x = run(model, OrderingPolicy("ccd"), np.ones(6), max_epochs=k, tol=0.0).final_x
            assert objective(model, x) == pytest.approx(f, abs=1e-12)


def _oracle_iterates(model, order, x0, epochs):
    """x^0 and the iterate after each epoch, through the step oracle."""
    xs = [np.array(x0, dtype=float)]
    for _ in range(epochs):
        xs.append(simulate_epoch(model, xs[-1], order))
    return xs


_N = 12
_K = _block_epochs(_N)
_FIXED_CASES = [
    (model, policy)
    for model in (PermInvariantQuadratic(_N, 0.2), build_log_uniform_spectrum(_N, 100.0, 3))
    for policy in (np.arange(_N), np.random.default_rng(21).permutation(_N))
]
_CCD = OrderingPolicy("ccd")


@pytest.mark.parametrize("model,policy", _FIXED_CASES)
class TestFixedOrderBlocks:
    """Fixed orders at small n run as blocks of K stacked epoch-map powers.

    `policy` is the order a case visits every epoch, the identity or a
    permutation p: its run is ccd on relabel(model, p) from x0[p], checked
    against the step oracle visiting p on `model`.
    """

    def test_max_epochs_sweep_over_block_edges(self, model, policy):
        x0 = np.random.default_rng(22).standard_normal(_N)
        ref = _oracle_iterates(model, policy, x0, 2 * _K + 1)
        f0, scale = objective(model, x0), np.abs(x0).max()
        cyclic = relabel(model, policy)
        for max_epochs in range(2 * _K + 2):
            traj = run(cyclic, _CCD, x0[policy], max_epochs=max_epochs, tol=0.0)
            assert traj.epochs == max_epochs
            for f, x_ref in zip(traj.f_per_epoch, ref):
                assert abs(objective(model, x_ref) - f) <= 1e-12 * f0
            x = traj.final_x
            assert abs(objective(cyclic, x) - traj.f_per_epoch[-1]) <= 1e-12 * f0
            assert np.abs(x - ref[max_epochs][policy]).max() <= 1e-12 * scale

    @pytest.mark.parametrize("stop", [1, _K // 2, _K, _K + 1, _K + _K // 2, 2 * _K])
    def test_tolerance_stops_at_first_epoch_below(self, model, policy, stop):
        # first, middle and last epoch of the first two blocks
        x0 = np.random.default_rng(23).standard_normal(_N)
        ref = _oracle_iterates(model, policy, x0, stop)
        tol = 0.5 * (objective(model, ref[stop - 1]) + objective(model, ref[stop]))
        traj = run(relabel(model, policy), _CCD, x0[policy], max_epochs=10 * _K, tol=tol)
        assert traj.epochs == stop
        assert np.all(traj.f_per_epoch[:-1] > tol) and traj.f_per_epoch[-1] <= tol
        assert np.abs(traj.final_x - ref[stop][policy]).max() <= 1e-12 * np.abs(x0).max()

    def test_draws_nothing_from_generator(self, model, policy):
        rng = np.random.default_rng(24)
        x0 = rng.standard_normal(_N)
        state = rng.bit_generator.state
        run(relabel(model, policy), _CCD, x0[policy], max_epochs=3 * _K, tol=0.0, seed=rng)
        assert rng.bit_generator.state == state

    def test_nonfinite_objective_carries_last_finite_value(self, model, policy, monkeypatch):
        f_of = engine.objective
        bad = _K + 2  # third epoch of the second block

        def poisoned(model, x):
            f = f_of(model, x)
            if np.ndim(f):  # a stack: the start, then one per block
                poisoned.calls += 1
                if poisoned.calls == 3:
                    f[bad - _K - 1] = np.nan
            return f

        poisoned.calls = 0
        monkeypatch.setattr(engine, "objective", poisoned)
        x0 = np.random.default_rng(25).standard_normal(_N)
        with pytest.raises(NumericalError) as err:
            run(relabel(model, policy), _CCD, x0[policy], max_epochs=3 * _K, tol=0.0)
        ref = _oracle_iterates(model, policy, x0, bad - 1)
        assert err.value.last_estimate == pytest.approx(objective(model, ref[-1]), rel=1e-12)
        assert f"after {bad * _N} iterations" in str(err.value)


class TestFixedOrderOutsideBlocks:
    def test_block_size_limit(self):
        # at least two n x n maps per block up to n = 256
        assert _K >= 2
        assert _block_epochs(256) == 2
        assert _block_epochs(257) < 2

    def test_wrong_length_x0_rejected(self):
        # also when no epoch runs: a zero budget or a start already within tol
        for model in (PermInvariantQuadratic(4, 0.5), build_log_uniform_spectrum(4, 10.0, 0),
                      PermInvariantQuadratic(300, 0.5)):
            n = model.n
            for x0, max_epochs, tol in [(np.ones(3), 100, 1e-8), (np.ones(3), 0, 1e-8),
                                        (np.ones(3), 5, 1e9), (np.zeros(3), 5, 1e-8)]:
                with pytest.raises(ValueError, match=rf"x0 has shape \(3,\), expected \({n},\)"):
                    run(model, _CCD, x0, max_epochs=max_epochs, tol=tol)

    def test_above_block_size_limit(self):
        # n = 300 keeps the per-coordinate loop
        n = 300
        assert _block_epochs(n) < 2
        model = PermInvariantQuadratic(n, 0.1)
        rng = np.random.default_rng(26)
        x0 = rng.standard_normal(n)
        for order in (np.arange(n), rng.permutation(n)):
            ref = _oracle_iterates(model, order, x0, 3)
            for k, x_ref in enumerate(ref):
                x = run(relabel(model, order), _CCD, x0[order], max_epochs=k, tol=0.0).final_x
                assert np.abs(x - x_ref[order]).max() <= 1e-12 * np.abs(x0).max()


class TestFixedOrderDrift:
    @pytest.mark.skipif(np.finfo(np.longdouble).eps == np.finfo(float).eps,
                        reason="longdouble is float64 on this platform")
    def test_block_path_drift_is_bounded_per_epoch(self):
        # Every block reapplies one float64-rounded map, so f drifts from
        # the exact trajectory linearly in the epoch count.  Measured over
        # these 4000 epochs under the OpenBLAS kernel families SkylakeX,
        # Haswell, Sandybridge, Nehalem and Prescott: the last drift per
        # epoch is 1.8e-17, 1.7e-17, 1.26e-16, 1.21e-16 and 1.25e-16, and
        # with 2e-16 per epoch the offset needed is 4.5e-16, 4.5e-16,
        # 3.1e-15 (epoch 69), 4.5e-16 and 1.3e-15 (epoch 38).  The bound
        # is 2e-16 per epoch (1.6x the worst) plus 1e-14 (3.2x).
        n, delta, epochs = 100, 0.05, 4000
        x0 = np.random.default_rng(derive_seed(3, 0, 0, 0)).standard_normal(n)  # `solve --seed 3`
        traj = run(PermInvariantQuadratic(n, delta), OrderingPolicy("ccd"), x0,
                   max_epochs=epochs, tol=0.0)
        assert traj.epochs == epochs
        ref = _longdouble_f(n, delta, x0, epochs)
        drift = np.abs(traj.f_per_epoch - ref) / ref
        assert np.all(drift <= 2e-16 * np.arange(epochs + 1) + 1e-14)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps == np.finfo(float).eps,
                        reason="longdouble is float64 on this platform")
    def test_row_loop_drift_is_bounded_per_epoch(self):
        # Above n = 256 a fixed order takes the row loop, held here to the
        # block path's bound.  Both updates of a step must take delta itself:
        # with fl(delta - 1) for x_i and delta for s, f drifted 3.2e-13 from
        # the exact trajectory over these 2000 epochs.
        n, delta, epochs = 300, 0.3, 2000
        x0 = np.random.default_rng(derive_seed(1, 0, 0, 0)).standard_normal(n)  # `solve --seed 1`
        traj = run(PermInvariantQuadratic(n, delta), OrderingPolicy("ccd"), x0,
                   max_epochs=epochs, tol=0.0)
        assert traj.epochs == epochs
        ref = _longdouble_f(n, delta, x0, epochs)
        drift = np.abs(traj.f_per_epoch - ref) / ref
        assert np.all(drift <= 4e-17 * np.arange(epochs + 1) + 2e-15)


def _refuse(*args, **kwargs):
    raise AssertionError("called")


def _mp_f(mpmath, delta, x0, epochs):
    """f at epochs 0..epochs of cyclic descent at mpmath's working precision."""
    d, x = mpmath.mpf(delta), [mpmath.mpf(v) for v in x0]
    fs = []
    for epoch in range(epochs + 1):
        s = mpmath.fsum(x)
        fs.append(float((d * mpmath.fsum(v * v for v in x) + (1 - d) * s * s) / 2))
        for i in range(len(x) if epoch < epochs else 0):
            g = s - x[i]
            x[i], s = (d - 1) * g, d * g
    return np.array(fs)


def _longdouble_f(n, delta, x0, epochs):
    """f at epochs 0..epochs of cyclic descent in extended precision, without cancellation."""
    ld = np.longdouble
    d = ld(delta)
    lam = sum([ld(1) - d] * n, ld(0)) + d  # eigenvalue of the ones vector
    x = np.array(x0, dtype=ld)
    fs = []
    for epoch in range(epochs + 1):
        s = x.sum()
        r = x - s / n
        fs.append(d / 2 * (r @ r) + lam / 2 * s * s / n)
        for i in range(n if epoch < epochs else 0):
            g = d * x[i] + (ld(1) - d) * s
            x[i] -= g
            s -= g
    return np.array(fs)


class TestCyclicTail:
    """`_cyclic_tail`, table1's cyclic column: the stop epoch and rate window of `run`."""

    @pytest.mark.parametrize("max_epochs", [1, 2, 3, 4, 15, 16, 17, 31, 32, 33, 1023, 1024, 1025])
    def test_budget_next_to_powers_of_two(self, max_epochs):
        # delta this small never reaches tol, so the run stops at the budget.
        # The spectral and the stepped (block-path) tails differ by at most
        # 5.0e-14 (SkylakeX), 5.5e-14 (Haswell), 2.6e-14 (Sandybridge),
        # 8.9e-14 (Nehalem) and 1.22e-13 (Prescott, at 1025 epochs) relative
        # over these budgets; the bound is 2e-13, 1.6x the worst.
        model = PermInvariantQuadratic(10, 1e-3)
        x0 = np.random.default_rng(max_epochs).standard_normal(10)
        traj = run(model, OrderingPolicy("ccd"), x0, max_epochs=max_epochs, tol=1e-8)
        stop, f_tail = _cyclic_tail(model, x0, max_epochs, 1e-8)
        assert stop == traj.epochs == max_epochs
        tail = traj.f_per_epoch[-len(f_tail):]
        assert len(f_tail) == min(stop, 10) + 1
        assert np.allclose(f_tail, tail, rtol=2e-13, atol=0.0)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps == np.finfo(float).eps,
                        reason="longdouble is float64 on this platform")
    @pytest.mark.parametrize("gap", [1e-3, 1e-5, 1e-7, 1e-9])
    def test_near_upper_edge_against_extended_precision(self, gap):
        # delta = (1 - gap) n/(n-1): the smallest eigenvalue of A is n*gap,
        # and the uncentred form (delta/2)||x||^2 + ((1-delta)/2) s^2 would
        # lose about log10(1/(n*gap)) digits of f.  The centred form of
        # `objective` keeps both rates at the extended-precision one.
        for n, tol, max_epochs in [(2, 1e-14, 300), (3, 1e-14, 12), (7, 1e-14, 300),
                                   (20, 1e-8, 300), (64, 1e-8, 12), (64, 1e-14, 300)]:
            model = PermInvariantQuadratic(n, (1.0 - gap) * n / (n - 1))
            x0 = np.random.default_rng(n).standard_normal(n)
            traj = run(model, OrderingPolicy("ccd"), x0, max_epochs=max_epochs, tol=tol)
            stop, f_tail = _cyclic_tail(model, x0, max_epochs, tol)
            assert stop == traj.epochs >= 10
            ref = empirical_rate(_longdouble_f(n, model.delta, x0, stop).astype(float))
            run_err = abs(empirical_rate(traj) - ref)
            tail_err = abs(empirical_rate(f_tail) - ref)
            assert run_err <= 1e-14 * ref
            assert tail_err <= 1e-14 * ref

    def test_rate_equals_run_at_table1_defaults(self):
        # the default grid at CLI seed 0: same stop epochs, rates within a few ulps
        for stream, delta in enumerate((0.8, 0.5, 0.33, 0.2, 0.1, 0.03)):
            model = PermInvariantQuadratic(100, delta)
            x0 = np.random.default_rng(derive_seed(0, stream, 0, 0)).standard_normal(100)
            traj = run(model, OrderingPolicy("ccd"), x0, max_epochs=500_000, tol=1e-8)
            stop, f_tail = _cyclic_tail(model, x0, 500_000, 1e-8)
            assert stop == traj.epochs
            assert empirical_rate(f_tail) == pytest.approx(empirical_rate(traj), rel=1e-15)

    @pytest.mark.parametrize("stream, delta", [(0, 0.8), (4, 0.1)])
    def test_plain_double_route_keeps_run(self, stream, delta, monkeypatch):
        # where long double is plain double (Windows, macOS arm64) the
        # spectrum's guard rejects most cells, which are then stepped
        # (delta = 0.8); the default cell it still takes (delta = 0.1)
        # read 8.5e-13 off `run`'s f
        monkeypatch.setattr(spectrum, "_EXTENDED", np.float64)
        model = PermInvariantQuadratic(100, delta)
        x0 = np.random.default_rng(derive_seed(0, stream, 0, 0)).standard_normal(100)
        traj = run(model, OrderingPolicy("ccd"), x0, max_epochs=500_000, tol=1e-8)
        stop, f_tail = _cyclic_tail(model, x0, 500_000, 1e-8)
        assert stop == traj.epochs
        assert np.allclose(f_tail, traj.f_per_epoch[-11:], rtol=1e-12, atol=0.0)

    def test_inputs_and_nonfinite_start_raise_as_run_does(self):
        model = PermInvariantQuadratic(4, 0.5)
        for args in [(np.ones(3), 5, 1e-8), (np.ones(4), -1, 1e-8), (np.ones(4), 5, -1.0),
                     (np.ones(4), 5, math.nan), (np.ones(4), 2.5, 1e-8), (np.ones(4), 5.0, 1e-8),
                     (np.ones(4), math.inf, 1e-8)]:
            with pytest.raises(ValueError) as ours:
                _cyclic_tail(model, *args)
            with pytest.raises(ValueError) as theirs:
                run(model, OrderingPolicy("ccd"), args[0], max_epochs=args[1], tol=args[2])
            assert str(ours.value) == str(theirs.value)
        x0 = np.array([1.0, np.nan, 0.0, 0.0])
        with pytest.raises(NumericalError) as ours:
            _cyclic_tail(model, x0, 5, 1e-8)
        with pytest.raises(NumericalError) as theirs:
            run(model, OrderingPolicy("ccd"), x0, max_epochs=5, tol=1e-8)
        assert str(ours.value) == str(theirs.value) == "nonfinite objective at start: nan"
        assert ours.value.last_estimate == theirs.value.last_estimate

    def test_converged_start_and_zero_budget_stop_at_epoch_zero(self):
        model = PermInvariantQuadratic(4, 0.5)
        assert _cyclic_tail(model, np.zeros(4), 5, 1e-8)[0] == 0
        stop, f_tail = _cyclic_tail(model, np.ones(4), 0, 1e-8)
        assert stop == 0 and np.array_equal(f_tail, [objective(model, np.ones(4))])

    def test_bracket_miss_is_stepped_not_dropped(self, monkeypatch, capsys):
        # a spectral window whose f at the stop epoch stays above tol, which
        # only rounding can cause, makes the cell `run`'s, not a failed one.
        # Only the spectral window evaluates 11 rows here: the block path
        # takes 13 epochs per product at n = 100, and the random columns of
        # two replicates stack two rows.
        from cdlab.cli import cmd_table1

        model = PermInvariantQuadratic(100, 0.5)
        x0 = np.random.default_rng(0).standard_normal(100)
        traj = run(model, OrderingPolicy("ccd"), x0, max_epochs=500_000, tol=1e-8)
        rate = cmd_table1(deltas=(0.5,), replicates=2)[0]["rho_ccd_emp"]
        f_of = engine.objective

        def missed(model, x):
            f = f_of(model, x)
            if np.ndim(f) and len(f) == engine._RATE_WINDOW + 1:
                f[-1] = f[-2]
            return f

        monkeypatch.setattr(engine, "objective", missed)
        assert engine._spectral_tail(model, x0, 500_000, 1e-8) is None
        calls = []
        monkeypatch.setattr(engine, "run", lambda *args: calls.append(args) or run(*args))
        stop, f_tail = _cyclic_tail(model, x0, 500_000, 1e-8)
        assert len(calls) == 1 and stop == traj.epochs
        assert np.array_equal(f_tail, traj.f_per_epoch[-11:])
        capsys.readouterr()
        row = cmd_table1(deltas=(0.5,), replicates=2)[0]
        assert math.isfinite(row["rho_ccd_emp"])
        assert row["rho_ccd_emp"] == pytest.approx(rate, rel=1e-12)
        assert "no valid ccd replicate" not in capsys.readouterr().err

    @pytest.mark.parametrize("n, delta, max_epochs", [(257, 0.9, 2000), (300, 0.5, 400),
                                                      (1000, 0.95, 2000)])
    def test_spectral_route_above_block_size_limit(self, n, delta, max_epochs, monkeypatch):
        # above n = 256 the cell steps no epoch and builds no map: the stop
        # epoch of `run` (by tol, or at the capped budget) and its rate
        model = PermInvariantQuadratic(n, delta)
        x0 = np.random.default_rng(n).standard_normal(n)
        traj = run(model, OrderingPolicy("ccd"), x0, max_epochs=max_epochs, tol=1e-8)
        for name in ("run", "epoch_map"):
            monkeypatch.setattr(engine, name, _refuse)
        stop, f_tail = _cyclic_tail(model, x0, max_epochs, 1e-8)
        assert stop == traj.epochs
        assert (stop < max_epochs) == (max_epochs == 2000)
        assert abs(empirical_rate(f_tail) - empirical_rate(traj)) <= 1e-12 * empirical_rate(traj)

    @pytest.mark.parametrize("n, delta, max_epochs, tol", [
        (64, 1.0 - 1e-12, 300, 1e-14), (30, 1e-30, 300, 1e-14), (192, 1.005, 500_000, 1e-8),
        (20, 1.0, 5, 1e-8), (12, None, 5000, 1e-10)])
    def test_cells_off_the_spectrum_run_run(self, n, delta, max_epochs, tol, monkeypatch):
        # near delta = 1 cond(V) ~ 1/(1 - delta), and below about 1e-16 the
        # form loses the coordinate sum, so the guard rejects those cells;
        # delta >= 1 and the dense model (delta None) have no spectral form.
        # Each such cell is one cyclic `run`, and its tail that run's exactly
        if delta is None:
            model = build_log_uniform_spectrum(n, 1e2, derive_seed(1, 0))
            x0 = np.random.default_rng(2).standard_normal(n)
        else:
            model = PermInvariantQuadratic(n, delta)
            x0 = np.random.default_rng(n).standard_normal(n)
        assert engine._spectral_tail(model, x0, max_epochs, tol) is None
        traj = run(model, OrderingPolicy("ccd"), x0, max_epochs=max_epochs, tol=tol)
        calls = []
        monkeypatch.setattr(engine, "run", lambda *args: calls.append(args) or run(*args))
        stop, f_tail = _cyclic_tail(model, x0, max_epochs, tol)
        assert len(calls) == 1 and stop == traj.epochs
        assert np.array_equal(f_tail, traj.f_per_epoch[-(min(stop, 10) + 1):])

    def test_spectral_form_against_40_digits(self):
        # f over the rate window from stepping (`run`) and the spectral
        # form, against a 40-digit cyclic run.  Under the five OpenBLAS
        # families (SkylakeX, Haswell, Sandybridge, Nehalem, Prescott) the
        # spectral form is within 1.7e-14 to 2.1e-14 (Nehalem) everywhere,
        # bound 3e-14, and within 2.0e-15 (SkylakeX, Haswell) in runs of
        # 100 epochs or more, bound 3e-15.  Stepping drifts with the epoch
        # count, 6.4e-15 to 1.9e-13 after 2000-3000 epochs, so the spectral
        # form is closer from 1000 epochs on; below that stepping can land
        # closer by chance (Haswell: 6.7e-16 against 1.1e-15 at (30, 0.3))
        mpmath = pytest.importorskip("mpmath")
        for n, delta, max_epochs in [(5, 1e-6, 3000), (30, 1e-3, 2000), (30, 0.3, 10**5),
                                     (30, 0.5, 10**5), (20, 0.8, 10**5), (30, 0.95, 10**5),
                                     (30, 0.999, 10**5)]:
            model = PermInvariantQuadratic(n, delta)
            x0 = np.random.default_rng(n).standard_normal(n)
            traj = run(model, OrderingPolicy("ccd"), x0, max_epochs=max_epochs, tol=1e-8)
            with mpmath.workdps(40):
                ref = _mp_f(mpmath, delta, x0, traj.epochs)[-11:]
            spectral = engine._spectral_tail(model, x0, max_epochs, 1e-8)
            errors = {}
            for name, (stop, f) in [("run", (traj.epochs, traj.f_per_epoch[-11:])),
                                    ("spectral", spectral)]:
                assert stop == traj.epochs
                errors[name] = np.abs(f / ref - 1)
            assert errors["spectral"].max() <= 3e-14
            if traj.epochs >= 100:
                assert errors["spectral"].max() <= 3e-15
            if traj.epochs >= 1000:
                assert errors["spectral"][-1] <= errors["run"][-1]
                assert errors["spectral"].max() <= errors["run"].max()


class TestRpcdTails:
    """`_runs` on rpcd replicates, table1's rpcd column: replicate r is `run` with generator r."""

    @staticmethod
    def rngs(count, seed=0):
        return [np.random.default_rng([seed, r]) for r in range(count)]

    @staticmethod
    def runs(model, starts, rngs, max_epochs, tol):
        return [run(model, OrderingPolicy("rpcd"), x0, max_epochs=max_epochs, tol=tol, seed=rng)
                for x0, rng in zip(starts, rngs)]

    @staticmethod
    def stack(model, starts, rngs, max_epochs, tol):
        return _runs(model, OrderingPolicy("rpcd"), starts, rngs, max_epochs, tol)

    @pytest.mark.parametrize("delta", [0.2, 0.03, 0.005])
    def test_stack_matches_run_with_powers_floored(self, delta, monkeypatch):
        # n = 192 gives blocks of b = 14 and m = 14; at delta = 0.005 the
        # powers delta^(14J) from J = 9 on are below the floor and set to 0.
        # The row loop is patched to raise, so the scan must do the stepping
        n = 192
        model = PermInvariantQuadratic(n, delta)
        starts = np.random.default_rng(1).standard_normal((4, n))

        def refuse(*args):
            raise AssertionError("row loop called")

        with monkeypatch.context() as patch:
            patch.setattr(engine, "_epoch_perm_invariant", refuse)
            trajs = self.stack(model, starts, self.rngs(4), 500_000, 1e-8)
        for traj, ref in zip(trajs, self.runs(model, starts, self.rngs(4), 500_000, 1e-8)):
            assert traj.epochs == ref.epochs
            assert empirical_rate(traj) == pytest.approx(empirical_rate(ref), rel=1e-12)

    def test_nonfinite_start_drops_only_its_replicate(self):
        model = PermInvariantQuadratic(30, 0.5)
        starts = np.random.default_rng(2).standard_normal((5, 30))
        bad = starts.copy()
        bad[2, 7] = np.nan
        with np.errstate(invalid="ignore"):
            trajs = self.stack(model, bad, self.rngs(5), 5000, 1e-8)
        with pytest.raises(NumericalError) as err, np.errstate(invalid="ignore"):
            self.runs(model, bad[2:3], self.rngs(5)[2:3], 5000, 1e-8)
        assert isinstance(trajs[2], NumericalError)
        assert str(trajs[2]) == str(err.value)
        assert trajs[2].last_estimate is err.value.last_estimate is None
        full = self.stack(model, starts, self.rngs(5), 5000, 1e-8)
        for r in (0, 1, 3, 4):
            assert trajs[r].epochs == full[r].epochs
            assert empirical_rate(trajs[r]) == pytest.approx(empirical_rate(full[r]), rel=1e-12)

    def test_zero_budget_and_converged_start_stop_at_epoch_zero(self):
        # like `run`, a replicate that takes no epoch draws no order
        model = PermInvariantQuadratic(10, 0.5)
        starts = np.vstack([np.ones(10), np.zeros(10)])
        rngs, fresh = self.rngs(2), self.rngs(2)
        first, zero = self.stack(model, starts, rngs, 0, 1e-8)
        assert first.epochs == 0
        assert first.f_per_epoch == pytest.approx([objective(model, starts[0])], rel=1e-15)
        assert zero.epochs == 0 and np.array_equal(zero.f_per_epoch, [0.0])
        assert rngs[0].bit_generator.state == fresh[0].bit_generator.state
        zero = self.stack(model, starts, rngs, 5, 1e-8)[1]
        assert zero.epochs == 0 and np.array_equal(zero.f_per_epoch, [0.0])
        assert rngs[1].bit_generator.state == fresh[1].bit_generator.state

    def test_one_start_is_the_row_loop(self):
        # a stack of one is `run` bit for bit at any n; more starts take the scan
        for n in (30, 300):
            model = PermInvariantQuadratic(n, 0.5)
            start = np.random.default_rng(3).standard_normal((1, n))
            (traj,) = self.stack(model, start, self.rngs(1), 40, 1e-8)
            (ref,) = self.runs(model, start, self.rngs(1), 40, 1e-8)
            assert np.array_equal(traj.f_per_epoch, ref.f_per_epoch)
            assert np.array_equal(traj.final_x, ref.final_x)

    def test_inputs_raise_as_run_does(self):
        model = PermInvariantQuadratic(4, 0.5)
        for args in [(np.ones(3), 5, 1e-8), (np.ones(4), -1, 1e-8), (np.ones(4), 5, -1.0)]:
            with pytest.raises(ValueError) as ours:
                self.stack(model, [np.ones(4), args[0]], self.rngs(2), *args[1:])
            with pytest.raises(ValueError) as theirs:
                run(model, OrderingPolicy("rpcd"), args[0], max_epochs=args[1], tol=args[2])
            assert str(ours.value) == str(theirs.value)


def _chunk_points(n):
    """Epoch counts around the order chunks of `_runs` at dimension n.

    k = max(1, `_ORDER_CHUNK` // n) is the chunk: 0, 1, k-1, k, k+1 and
    2k+1, and 2, 3, 4, 7, 8, 15 and 16, inside the chunk where k > 16.
    """
    k = max(1, _ORDER_CHUNK // n)
    return sorted({0, 1, k - 1, k, k + 1, 2 * k + 1, 2, 3, 4, 7, 8, 15, 16})


def _stop_near(fs, e):
    """(j, tol): the first epoch j >= e where f drops, and a tol at which a run from fs stops at j.

    An rcd epoch that visits only the coordinate stepped last leaves f
    unchanged (at n = 2, one epoch in four), and no tol stops a run there.
    """
    j = next(j for j in range(e, len(fs)) if j == 0 or fs[j - 1] > fs[j])
    return j, 2.0 * fs[0] if j == 0 else math.sqrt(fs[j - 1] * fs[j])


def _oracle(model, kind, x0, rng, epochs):
    """f per epoch and iterates of a run drawing one order per epoch.

    Each epoch draws rng.integers(0, n, size=n) (rcd) or rng.permutation(n)
    (rpcd) and steps `_epoch_perm_invariant`; entry e of each list is after
    e epochs.
    """
    n = model.n
    x = np.array(x0, dtype=float)
    fs, xs = [objective(model, x)], [x.copy()]
    for _ in range(epochs):
        order = rng.integers(0, n, size=n) if kind == "rcd" else rng.permutation(n)
        stepped = x.tolist()
        _epoch_perm_invariant(stepped, model.delta, order.tolist())
        x[:] = stepped
        fs.append(objective(model, x))
        xs.append(x.copy())
    return fs, xs


class TestChunkedOrders:
    """Orders drawn a chunk at a time are the per-epoch draws, wherever a replicate stops.

    The oracle draws one order per epoch.  Against it, the row loop is
    equal bit for bit; the rpcd scan (more than one start) and the dense
    kernel equal it to rounding.  A replicate that stops or fails inside a
    chunk leaves its generator at the chunk's end, past the per-epoch
    draws, so these tests hold its f and iterates, not its generator.
    """

    DELTA = 1e-3  # slow enough that f stays far above 0 over 2k+1 epochs at n = 2

    @staticmethod
    def assert_matches(traj, fs, x, exact):
        if exact:
            assert np.array_equal(traj.f_per_epoch, fs)
            assert np.array_equal(traj.final_x, x)
        else:
            assert traj.epochs == len(fs) - 1
            assert np.allclose(traj.f_per_epoch, fs, rtol=1e-12, atol=0.0)
            assert np.abs(traj.final_x - x).max() <= 1e-12 * np.abs(x).max()

    @pytest.mark.parametrize("kind", ["rcd", "rpcd"])
    @pytest.mark.parametrize("n", [2, 7, 100, 193, 300])
    def test_budget_and_stop_at_chunk_points(self, n, kind):
        model, policy = PermInvariantQuadratic(n, self.DELTA), OrderingPolicy(kind)
        x0 = np.random.default_rng(n).standard_normal(n)
        points = _chunk_points(n)
        fs, xs = _oracle(model, kind, x0, np.random.default_rng([n, 1]), points[-1] + 1)
        for e in points:
            rng = np.random.default_rng([n, 1])
            traj = run(model, policy, x0, max_epochs=e, tol=0.0, seed=rng)
            self.assert_matches(traj, fs[: e + 1], xs[e], exact=True)
            stop, tol = _stop_near(fs, e)
            rng = np.random.default_rng([n, 1])
            traj = run(model, policy, x0, max_epochs=len(fs) - 1, tol=tol, seed=rng)
            self.assert_matches(traj, fs[: stop + 1], xs[stop], exact=True)

    @pytest.mark.parametrize("kind", ["rcd", "rpcd"])
    @pytest.mark.parametrize("n, dense", [(2, False), (7, False), (100, False),
                                          (193, False), (300, False),
                                          (2, True), (7, True), (100, True)])
    def test_stack_stops_at_different_epochs(self, n, kind, dense):
        # replicate r's start is scaled so that it stops at tol = 1 near
        # targets[r] (`_stop_near`); the last one runs to the budget
        model, policy = PermInvariantQuadratic(n, self.DELTA), OrderingPolicy(kind)
        k = max(1, _ORDER_CHUNK // n)
        budget = 2 * k + 1
        targets = [0, 1, k - 1, k, k + 1]
        base = np.random.default_rng(n).standard_normal((len(targets) + 1, n))
        starts, stops = [], []
        for r, target in enumerate(targets):
            fs = _oracle(model, kind, base[r], np.random.default_rng([n, r]), budget)[0]
            stop, tol = _stop_near(fs, target)
            starts.append(base[r] / math.sqrt(tol))  # f scales with x^2: f drops below 1 at stop
            stops.append(stop)
        fs = _oracle(model, kind, base[-1], np.random.default_rng([n, len(targets)]), budget)[0]
        starts.append(base[-1] * 2.0 / math.sqrt(fs[-1]))
        stops.append(budget)
        rngs = [np.random.default_rng([n, r]) for r in range(len(starts))]
        run_model = DenseQuadratic(model.matrix()) if dense else model
        trajs = _runs(run_model, policy, starts, rngs, budget, 1.0)
        exact = not dense and kind == "rcd"
        for r, stop in enumerate(stops):
            fs, xs = _oracle(model, kind, starts[r], np.random.default_rng([n, r]), stop)
            assert all(f > 1.0 for f in fs[:-1]) and (fs[-1] <= 1.0 or stop == budget)
            self.assert_matches(trajs[r], fs[: stop + 1], xs[stop], exact)

    @pytest.mark.parametrize("kind", ["rcd", "rpcd"])
    @pytest.mark.parametrize("n, dense", [(7, False), (100, False), (300, False),
                                          (7, True), (100, True)])
    def test_nonfinite_f_fails_its_replicate_alone(self, n, kind, dense, monkeypatch):
        # the f of replicate 1 after epoch `bad` is NaN: it fails there with
        # the last finite f, and the other replicates run on to the budget
        model, policy = PermInvariantQuadratic(n, self.DELTA), OrderingPolicy(kind)
        k = max(1, _ORDER_CHUNK // n)
        count, budget = 3, 2 * k + 1
        starts = np.random.default_rng(n).standard_normal((count, n))
        run_model = DenseQuadratic(model.matrix()) if dense else model
        for bad in sorted({1, k - 1, k, k + 1} - {0}):
            seen = [0]  # f evaluated so far; every replicate is active until `bad`
            poison = count * bad + 1

            def poisoned(model, x, _objective=engine.objective):
                f = _objective(model, x)
                if np.ndim(f) and seen[0] <= poison < seen[0] + len(f):
                    f[poison - seen[0]] = np.nan
                seen[0] += np.size(f)
                return f

            rngs = [np.random.default_rng([n, r]) for r in range(count)]
            with monkeypatch.context() as patch:
                patch.setattr(engine, "objective", poisoned)
                trajs = _runs(run_model, policy, starts, rngs, budget, 0.0)
            exact = not dense and kind == "rcd"
            for r in range(count):
                fs, xs = _oracle(model, kind, starts[r], np.random.default_rng([n, r]), budget)
                if r == 1:
                    assert isinstance(trajs[r], NumericalError)
                    assert str(trajs[r]) == f"nonfinite objective after {bad * n} iterations"
                    assert trajs[r].last_estimate == pytest.approx(fs[bad - 1], rel=1e-12)
                else:
                    self.assert_matches(trajs[r], fs, xs[-1], exact)


class TestEpochMatrix:
    def test_closed_form_small_case(self):
        expected = np.array([
            [0.0, -0.5, -0.5],
            [0.0, 0.25, -0.25],
            [0.0, 0.125, 0.375],
        ])
        assert np.abs(closed_form_C(3, 0.5) - expected).max() <= 1e-15
        assert np.abs(epoch_map(DenseQuadratic(PermInvariantQuadratic(3, 0.5).matrix())) - expected).max() <= 1e-12

    def test_identity_gives_zero_map(self):
        assert np.all(closed_form_C(5, 1.0) == 0.0)
        assert np.abs(epoch_map(PermInvariantQuadratic(5, 1.0))).max() <= 1e-15

    def test_first_column_zero(self):
        for n, delta in ((2, 0.01), (10, 0.5), (40, 0.99)):
            assert np.all(closed_form_C(n, delta)[:, 0] == 0.0)
        m = build_log_uniform_spectrum(8, 30.0, 1)
        assert np.abs(epoch_map(m)[:, 0]).max() == 0.0

    def test_closed_form_matches_splitting(self):
        for n in (2, 5, 17, 50):
            for delta in (0.01, 0.5, 0.99):
                C_split = epoch_map(PermInvariantQuadratic(n, delta))
                assert np.abs(closed_form_C(n, delta) - C_split).max() <= 1e-12

    def test_one_epoch_equals_matrix_action(self):
        rng = np.random.default_rng(4)
        for model in (PermInvariantQuadratic(12, 0.3), build_log_uniform_spectrum(12, 20.0, 6)):
            C = epoch_map(model)
            x = rng.standard_normal(12)
            stepped = simulate_epoch(model, x, range(12))
            assert np.abs(stepped - C @ x).max() <= 1e-12
            traj = run(model, OrderingPolicy("ccd"), x, max_epochs=1, tol=0.0)
            assert np.abs(traj.final_x - C @ x).max() <= 1e-12

    def test_many_epochs_equal_matrix_power(self):
        rng = np.random.default_rng(8)
        model = PermInvariantQuadratic(20, 0.15)
        C = closed_form_C(20, 0.15)
        x = rng.standard_normal(20)
        traj = run(model, OrderingPolicy("ccd"), x, max_epochs=5, tol=0.0)
        assert np.abs(traj.final_x - np.linalg.matrix_power(C, 5) @ x).max() <= 1e-10


class TestRpcdEpochMap:
    def test_identity_permutation(self):
        model = PermInvariantQuadratic(4, 0.3)
        assert np.array_equal(epoch_map(model, np.arange(4)), epoch_map(model))

    def test_matches_simulated_epoch(self):
        model = PermInvariantQuadratic(3, 0.5)
        perm = [1, 2, 0]
        x = np.ones(3)
        mapped = epoch_map(model, perm) @ x
        simulated = simulate_epoch(model, x, perm)
        assert np.abs(mapped - simulated).max() <= 1e-12
        assert objective(model, mapped) == pytest.approx(objective(model, simulated), abs=1e-12)

    def test_random_permutations_many_sizes(self):
        # the delta window (0, n/(n-1)) with both edges approached, and a dense model
        rng = np.random.default_rng(10)
        models = [
            PermInvariantQuadratic(n, delta)
            for n in (2, 3, 10, 50)
            for delta in (0.01, 0.5, 1.0, 0.99 * n / (n - 1))
        ]
        models.append(build_log_uniform_spectrum(20, 1e3, 4))
        for model in models:
            for _ in range(5):
                perm = rng.permutation(model.n)
                x = rng.standard_normal(model.n)
                assert np.abs(
                    epoch_map(model, perm) @ x - simulate_epoch(model, x, perm)
                ).max() <= 1e-12

    def test_invalid_permutation(self):
        with pytest.raises(ValueError):
            epoch_map(PermInvariantQuadratic(3, 0.5), [0, 0, 1])

    def test_epoch_sequence_matches_map_product(self):
        # l permuted epochs equal the right-to-left product of their maps
        rng = np.random.default_rng(12)
        n, delta = 10, 0.2
        model = PermInvariantQuadratic(n, delta)
        x = rng.standard_normal(n)
        G = np.eye(n)
        current = x.copy()
        for _ in range(6):
            perm = rng.permutation(n)
            G = epoch_map(model, perm) @ G
            current = simulate_epoch(model, current, perm)
        assert np.abs(current - G @ x).max() <= 1e-10

    def test_run_stream_reproducible_as_maps(self):
        # the seeded run draws one permutation per epoch; rebuilding the
        # stream reproduces the trajectory through the epoch maps
        n, delta, epochs = 8, 0.3, 5
        model = PermInvariantQuadratic(n, delta)
        x0 = np.random.default_rng(1).standard_normal(n)
        traj = run(model, OrderingPolicy("rpcd"), x0, max_epochs=epochs, tol=0.0, seed=99)
        rng = np.random.default_rng(99)
        x = x0.copy()
        for _ in range(epochs):
            x = epoch_map(model, rng.permutation(n)) @ x
        assert np.abs(x - traj.final_x).max() <= 1e-10


class TestPermutedEpochMap:
    def test_dense_model_epoch(self):
        model = build_log_uniform_spectrum(8, 50.0, 3)
        rng = np.random.default_rng(5)
        x = rng.standard_normal(8)
        perm = rng.permutation(8)
        mapped = epoch_map(model, perm) @ x
        assert np.abs(mapped - simulate_epoch(model, x, perm)).max() <= 1e-12

    def test_reduces_to_shared_C_when_invariant(self):
        model = PermInvariantQuadratic(6, 0.4)
        perm = [3, 1, 5, 0, 2, 4]
        expected = np.empty((6, 6))
        expected[np.ix_(perm, perm)] = closed_form_C(6, 0.4)
        assert np.abs(epoch_map(model, perm) - expected).max() <= 1e-12


class TestExpectedOverX0:
    def test_empty_sequence_gives_half_trace(self):
        model = PermInvariantQuadratic(12, 0.3)
        # no epochs: the product is G = I
        assert expected_over_x0(model, np.eye(12)) == pytest.approx(6.0, abs=1e-12)

    def test_single_cyclic_epoch(self):
        model = PermInvariantQuadratic(9, 0.25)
        C = closed_form_C(9, 0.25)
        A = model.matrix()
        assert expected_over_x0(model, C) == pytest.approx(
            0.5 * np.trace(C.T @ A @ C), abs=1e-12
        )

    def test_monte_carlo_agreement(self):
        rng = np.random.default_rng(31)
        n, delta = 20, 0.3
        model = PermInvariantQuadratic(n, delta)
        maps = [epoch_map(model, rng.permutation(n)) for _ in range(3)]
        G = maps[2] @ maps[1] @ maps[0]
        X = rng.standard_normal((100_000, n))
        Y = X @ G.T
        A = model.matrix()
        f = 0.5 * np.einsum("ij,ij->i", Y, Y @ A)
        se = f.std(ddof=1) / np.sqrt(len(f))
        assert abs(f.mean() - expected_over_x0(model, G)) <= 3 * se

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            expected_over_x0(PermInvariantQuadratic(4, 0.5), np.eye(3))

    def test_stack_gives_each_products_value(self):
        model = build_log_uniform_spectrum(12, 100.0, 3)
        Gs = np.random.default_rng(5).standard_normal((2, 3, 12, 12))
        values = expected_over_x0(model, Gs)
        assert values.shape == (2, 3)
        for idx in np.ndindex(2, 3):
            one = expected_over_x0(model, Gs[idx])
            assert type(one) is float
            assert abs(values[idx] - one) <= 1e-15 * abs(one)

    def test_stack_shape_mismatch(self):
        model = PermInvariantQuadratic(4, 0.5)
        for G in (np.eye(4)[None, :3], np.ones((2, 3, 4)), np.ones(4), np.float64(1.0)):
            with pytest.raises(ValueError):
                expected_over_x0(model, G)


class TestDeriveSeed:
    def test_deterministic_and_distinct(self):
        a = np.random.default_rng(derive_seed(7, 1, 2)).standard_normal(4)
        b = np.random.default_rng(derive_seed(7, 1, 2)).standard_normal(4)
        c = np.random.default_rng(derive_seed(7, 1, 3)).standard_normal(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
