import numpy as np
import pytest

from cdlab import (
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
    init_state,
    objective,
    run,
)
from conftest import simulate_epoch


class TestOrderingPolicy:
    def test_aliases(self):
        assert OrderingPolicy("ccd").kind == "cyclic"
        assert OrderingPolicy("rcd").kind == "random_with_replacement"
        assert OrderingPolicy("rpcd").kind == "random_permutation"

    def test_fixed_permutation_validation(self):
        OrderingPolicy.fixed_permutation([2, 0, 1])
        with pytest.raises(ValueError):
            OrderingPolicy.fixed_permutation([0, 0, 1])
        with pytest.raises(ValueError):
            OrderingPolicy("cyclic", perm=(0, 1))
        with pytest.raises(ValueError):
            OrderingPolicy("bogus")


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
        assert traj.iterations == 0
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

    def test_nonfinite_start_raises(self):
        x0 = np.full(4, np.nan)
        with pytest.raises(NumericalError):
            run(PermInvariantQuadratic(4, 0.5), OrderingPolicy("ccd"), x0)

    def test_record_iterates(self):
        model = PermInvariantQuadratic(6, 0.4)
        traj = run(model, OrderingPolicy("ccd"), np.ones(6), max_epochs=3, tol=0.0,
                   record_iterates=True)
        assert len(traj.iterates) == len(traj.f_per_epoch)
        for x, f in zip(traj.iterates, traj.f_per_epoch):
            assert objective(model, x) == pytest.approx(f, abs=1e-12)


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
        assert expected_over_x0(model, ()) == pytest.approx(6.0, abs=1e-12)

    def test_single_cyclic_epoch(self):
        model = PermInvariantQuadratic(9, 0.25)
        C = closed_form_C(9, 0.25)
        A = model.matrix()
        assert expected_over_x0(model, (C,)) == pytest.approx(
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
        assert abs(f.mean() - expected_over_x0(model, maps)) <= 3 * se

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            expected_over_x0(PermInvariantQuadratic(4, 0.5), (np.eye(3),))


class TestDeriveSeed:
    def test_deterministic_and_distinct(self):
        a = np.random.default_rng(derive_seed(7, 1, 2)).standard_normal(4)
        b = np.random.default_rng(derive_seed(7, 1, 2)).standard_normal(4)
        c = np.random.default_rng(derive_seed(7, 1, 3)).standard_normal(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
