import math

import numpy as np
import pytest

from cdlab import (
    DenseQuadratic,
    PermInvariantQuadratic,
    build_log_uniform_spectrum,
    coordinate_gradient,
    init_state,
    objective,
    quadratic_constants,
    rho_C,
)


class TestObjective:
    def test_alternating_sign_point(self):
        model = PermInvariantQuadratic(4, 0.1)
        x = np.array([1.0, -1.0, 1.0, -1.0])
        assert objective(model, x) == pytest.approx(0.2, abs=1e-15)
        # cross-check against the dense quadratic form
        dense = 0.5 * x @ model.matrix() @ x
        assert objective(model, x) == pytest.approx(dense, abs=1e-12)

    def test_zero_is_minimizer(self):
        assert objective(PermInvariantQuadratic(7, 0.3), np.zeros(7)) == 0.0
        assert objective(build_log_uniform_spectrum(5, 10.0, 0), np.zeros(5)) == 0.0

    def test_identity_hessian(self):
        # delta = 1 renders the identity, so f is half the squared norm
        model = PermInvariantQuadratic(3, 1.0)
        assert objective(model, np.array([1.0, 2.0, 3.0])) == pytest.approx(7.0, abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            objective(PermInvariantQuadratic(4, 0.5), np.zeros(3))

    def test_matches_dense_for_random_inputs(self):
        rng = np.random.default_rng(0)
        for n in (2, 5, 17, 50):
            delta = rng.uniform(0.01, n / (n - 1) - 0.01)
            model = PermInvariantQuadratic(n, delta)
            A = model.matrix()
            for _ in range(20):
                x = rng.standard_normal(n)
                assert objective(model, x) == pytest.approx(0.5 * x @ A @ x, abs=1e-12)


class TestCoordinateGradient:
    def test_uniform_point(self):
        model = PermInvariantQuadratic(3, 0.5)
        state = init_state(model, np.ones(3))
        assert coordinate_gradient(model, state, 0) == pytest.approx(2.0, abs=1e-15)

    def test_zero_gradient_at_minimizer(self):
        model = PermInvariantQuadratic(5, 0.4)
        state = init_state(model, np.zeros(5))
        for i in range(5):
            assert coordinate_gradient(model, state, i) == 0.0

    def test_identity_hessian(self):
        model = PermInvariantQuadratic(2, 1.0)
        state = init_state(model, np.array([3.0, 4.0]))
        assert coordinate_gradient(model, state, 1) == pytest.approx(4.0, abs=1e-15)

    def test_index_out_of_range(self):
        model = PermInvariantQuadratic(3, 0.5)
        state = init_state(model, np.ones(3))
        with pytest.raises(IndexError):
            coordinate_gradient(model, state, 3)

    def test_matches_dense_product(self):
        rng = np.random.default_rng(1)
        for n in (2, 8, 50):
            delta = rng.uniform(0.01, 0.99)
            model = PermInvariantQuadratic(n, delta)
            A = model.matrix()
            x = rng.standard_normal(n)
            state = init_state(model, x)
            Ax = A @ x
            for i in range(n):
                assert coordinate_gradient(model, state, i) == pytest.approx(Ax[i], abs=1e-12)


class TestQuadraticConstants:
    def test_perm_invariant_closed_form(self):
        c = quadratic_constants(PermInvariantQuadratic(100, 0.05))
        assert c.L == pytest.approx(95.05, abs=1e-12)
        assert c.Lmax == c.Lmin == c.Lavg == 1.0
        assert c.mu == pytest.approx(0.05, abs=1e-15)

    def test_identity(self):
        c = quadratic_constants(PermInvariantQuadratic(2, 1.0))
        assert c.L == 1.0 and c.mu == 1.0

    def test_perm_invariant_matches_power_iteration(self):
        model = PermInvariantQuadratic(100, 0.05)
        # independent check of L: dominant eigenvalue of the dense matrix
        A = model.matrix()
        v = np.ones(100) / 10.0
        for _ in range(200):
            v = A @ v
            v /= np.linalg.norm(v)
        assert quadratic_constants(model).L == pytest.approx(float(v @ A @ v), rel=1e-10)

    def test_rank_one_dense(self):
        # all-ones matrix: single nonzero eigenvalue n
        c = quadratic_constants(DenseQuadratic(np.ones((4, 4))))
        assert c.L == pytest.approx(4.0, rel=1e-8)
        assert c.mu == pytest.approx(4.0, rel=1e-8)

    def test_constant_ordering_invariant(self):
        rng = np.random.default_rng(2)
        models = [PermInvariantQuadratic(10, d) for d in (0.01, 0.5, 1.0, 1.05)]
        models += [build_log_uniform_spectrum(12, 100.0, s) for s in range(3)]
        for m in models:
            c = quadratic_constants(m)
            n = m.n
            assert c.Lmin <= c.Lavg <= c.Lmax <= c.L * (1 + 1e-12)
            assert c.L <= n * c.Lmax * (1 + 1e-12)
            assert 1.0 - 1e-12 <= c.L / c.Lmax <= n * (1 + 1e-12)


class TestModelValidation:
    def test_delta_window(self):
        PermInvariantQuadratic(2, 1.99)  # in (0, 2)
        with pytest.raises(ValueError):
            PermInvariantQuadratic(2, 2.0)
        with pytest.raises(ValueError):
            PermInvariantQuadratic(100, 0.0)
        with pytest.raises(ValueError):
            PermInvariantQuadratic(1, 0.5)

    def test_rejects_non_integer_n(self):
        # rho_C(100.5, 0.5) read 0.99623, between its values at n = 100 and 101
        assert PermInvariantQuadratic(np.int64(100), 0.5).n == 100
        for n in (100.5, 100.0):
            with pytest.raises(ValueError, match=f"n must be an integer, got {n}"):
                PermInvariantQuadratic(n, 0.5)
        with pytest.raises(ValueError, match="n must be an integer"):
            rho_C(100.5, 0.5)

    def test_dense_rejects_asymmetric(self):
        A = np.eye(3)
        A[0, 1] = 1e-6
        with pytest.raises(ValueError):
            DenseQuadratic(A)

    def test_dense_rejects_nonunit_diagonal(self):
        with pytest.raises(ValueError):
            DenseQuadratic(2.0 * np.eye(3))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_dense_rejects_nonfinite(self, value):
        # every other check is a comparison, which NaN fails silently
        with pytest.raises(ValueError, match="finite"):
            DenseQuadratic([[1.0, value], [value, 1.0]])

    def test_dense_rejects_indefinite(self):
        A = np.eye(2)
        A[0, 1] = A[1, 0] = 2.0
        with pytest.raises(ValueError):
            DenseQuadratic(A)


class TestLogUniformSpectrum:
    def test_spectrum_spans_condition(self):
        # endpoints are pinned, so the pre-rescale eigenvalue ratio is the
        # requested condition exactly; after unit-diagonal rescaling it
        # stays within ten percent for a random orientation
        m = build_log_uniform_spectrum(100, 1e4, 7)
        ev = np.linalg.eigvalsh(m.A)
        ratio = ev.max() / ev[ev > 1e-12 * ev.max()].min()
        assert 0.9e4 <= ratio <= 1.1e4

    def test_invariants(self):
        m = build_log_uniform_spectrum(30, 100.0, 3)
        assert np.abs(m.A - m.A.T).max() <= 1e-12
        assert np.abs(np.diag(m.A) - 1.0).max() <= 1e-12
        assert np.linalg.eigvalsh(m.A).min() >= -1e-10

    def test_deterministic(self):
        a = build_log_uniform_spectrum(20, 1e3, 11).A
        b = build_log_uniform_spectrum(20, 1e3, 11).A
        assert np.array_equal(a, b)

    def test_degenerate_condition_rejected(self):
        for condition in (1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="condition must be finite and > 1"):
                build_log_uniform_spectrum(2, condition, 0)
