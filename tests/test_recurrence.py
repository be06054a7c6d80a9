import math
from fractions import Fraction

import numpy as np
import pytest

from cdlab import (
    PermInvariantQuadratic,
    asymptotic_coeffs,
    brute_force_abar,
    closed_form_C,
    conditional_expected_objective,
    evolve,
    expected_objective,
    first_iteration_expectation,
    first_iteration_objective,
    objective,
    recurrence_coeffs,
    symmetrize,
)
from cdlab import recurrence
from cdlab.recurrence import _closed_form_scalars
from conftest import batch_rpcd_objectives, permutation_matrices, simulate_epoch


class TestSymmetrize:
    def test_identity_is_fixed_point(self):
        form = symmetrize(np.eye(5))
        assert form.tau1 == pytest.approx(1.0, abs=1e-15)
        assert form.tau2 == pytest.approx(0.0, abs=1e-15)

    def test_all_ones(self):
        form = symmetrize(np.ones((5, 5)))
        assert form.tau1 == pytest.approx(0.0, abs=1e-15)
        assert form.tau2 == pytest.approx(1.0, abs=1e-15)

    def test_equals_explicit_permutation_average(self):
        rng = np.random.default_rng(0)
        Q = rng.standard_normal((3, 3))
        avg = sum(P @ Q @ P.T for P in permutation_matrices(3)) / 6
        form = symmetrize(Q)
        reconstructed = form.tau1 * np.eye(3) + form.tau2 * np.ones((3, 3))
        assert np.abs(avg - reconstructed).max() <= 1e-12

    def test_trace_preserved(self):
        rng = np.random.default_rng(1)
        for n in (2, 3, 4, 5):
            Q = rng.standard_normal((n, n))
            form = symmetrize(Q)
            assert n * form.tau1 + n * form.tau2 == pytest.approx(np.trace(Q), abs=1e-12)

    def test_rejects_small_or_nonsquare(self):
        with pytest.raises(ValueError):
            symmetrize(np.array([[1.0]]))
        with pytest.raises(ValueError):
            symmetrize(np.ones((2, 3)))


def _exact_scalars(n, delta):
    """The four scalars of closed_form_C in exact rational arithmetic."""
    d = Fraction(delta)
    pw = [d**k for k in range(n)]
    C = [[(1 - d) * (pw[i - j] - pw[i]) if i >= j else -(1 - d) * pw[i] for j in range(n)]
         for i in range(n)]
    col = [sum(C[i][j] for i in range(n)) for j in range(n)]
    rows = [sum(r) for r in C]
    return (sum(col), sum(r * r for r in rows), sum(c * c for c in col),
            sum(x * x for r in C for x in r))


def _exact_m2(n, delta):
    """m2 of closed_form_C from its column sums, in exact integer arithmetic.

    With delta = p/q, C = ((q-p)/q^(n+1)) K for the integer matrix
    K_ij = q^n (delta^(i-j) - delta^i) (i >= j), -q^n delta^i (i < j).
    """
    p, q = Fraction(delta).as_integer_ratio()
    pw = [p**k * q ** (n - k) for k in range(n)]
    col = [sum(pw[i - j] - pw[i] if i >= j else -pw[i] for i in range(n)) for j in range(n)]
    scale = Fraction(q - p, q ** (n + 1))
    return scale**2 * (sum(col) ** 2 - sum(c * c for c in col)) / (n * (n - 1))


class TestClosedFormScalars:
    CASES = [
        (n, t * n / (n - 1))
        for n in (2, 3, 7, 40)
        for t in (1e-12, 1e-9, 1e-3, 0.5, 1 - 1e-9, 1 - 1e-12)
    ] + [(n, 1.0 + s) for n in (3, 7, 40) for s in (-1e-9, 1e-9, -1e-3, 1e-3)]

    @pytest.mark.parametrize("n, delta", CASES)
    def test_match_exact_rational_evaluation(self, n, delta):
        *got, _ = _closed_form_scalars(n, delta)
        for value, exact in zip(got, _exact_scalars(n, delta)):
            assert abs(Fraction(value) - exact) <= Fraction(1e-13) * abs(exact)

    @pytest.mark.parametrize("n, delta", CASES + [(100, 1e-12)])
    def test_m2_matches_exact_rational_evaluation(self, n, delta):
        # m2 = ((ones'C ones)^2 - ||C' ones||^2) / (n(n-1)) cancels as delta -> 0;
        # the one-sign pair sum does not
        exact = _exact_m2(n, delta)
        if (n, delta) in self.CASES:
            one_C_one, _, norm_Ct_one_sq, _ = _exact_scalars(n, delta)
            assert exact == (one_C_one**2 - norm_Ct_one_sq) / (n * (n - 1))
        m2 = recurrence_coeffs(n, delta).m2
        assert abs(Fraction(m2) - exact) <= Fraction(1e-13) * abs(exact)

    @pytest.mark.parametrize("n", [65, 64 * 3 + 1])
    @pytest.mark.parametrize("t", [1e-9, 1e-3, 0.5, 0.9, 1 - 1e-9])
    def test_chunked_sums_match_one_chunk(self, n, t, monkeypatch):
        # n just past one and three chunks of 64 terms, over the whole window;
        # the pair sum carries the chunks before
        delta = t * n / (n - 1)
        whole = _closed_form_scalars(n, delta)
        monkeypatch.setattr(recurrence, "_SCALAR_CHUNK", 64)
        for value, exact in zip(_closed_form_scalars(n, delta), whole):
            assert abs(value - exact) <= 1e-14 * abs(exact)

    @pytest.mark.parametrize("delta", [0.03, 0.5, 0.99])
    def test_sums_within_ulps_of_exactly_rounded(self, delta):
        # the docstring's terms summed exactly: math.fsum, and for the pair
        # sum (S^2 - sum a^2)/2 over the (C' ones)_j as integer multiples of
        # 2^-1074.  n is past one chunk, so the pair sum's carry is summed
        # too.  BLAS dots left ||C||_F^2 200-3800 ulps off; pairwise sums 1.7
        n = recurrence._SCALAR_CHUNK + 3
        log_d = math.log(delta)
        j = np.arange(n, dtype=float)
        pw, om = np.exp(j * log_d), -np.expm1(j * log_d)
        pw_n, om_n = np.exp((n - j) * log_d), -np.expm1((n - j) * log_d)
        c1 = -np.expm1((j + 1.0) * log_d) - n * (1.0 - delta) * pw
        ct1 = -pw_n * om
        g = om_n * (1.0 + pw_n) / (-np.expm1(log_d) * (1.0 + np.exp(log_d)))
        frob = math.fsum(np.concatenate([om**2 * g, (n - 1.0 - j) * (pw * pw)]))
        a = [p << 1075 - q.bit_length() for p, q in map(float.as_integer_ratio, ct1.tolist())]
        pairs = (sum(a) ** 2 - sum(v * v for v in a)) / 2**2149  # int / int rounds once
        want = [math.fsum(ct1), math.fsum(c1 * c1), math.fsum(ct1 * ct1),
                (1.0 - delta) ** 2 * frob, pairs]
        for got, exact in zip(_closed_form_scalars(n, delta), want):
            assert abs(got - exact) <= 4 * 2.0**-52 * abs(exact)

    def test_identity_model(self):
        assert _closed_form_scalars(40, 1.0) == (0.0, 0.0, 0.0, 0.0, 0.0)

    def test_rejects_delta_outside_window(self):
        with pytest.raises(ValueError):
            recurrence_coeffs(10, 10 / 9)


class TestRecurrenceCoeffs:
    def test_identity_model_gives_zero(self):
        M = recurrence_coeffs(100, 1.0)
        assert M.d1 == M.d2 == M.m1 == M.m2 == 0.0

    def test_matches_brute_force_expectations(self):
        n, delta = 3, 0.5
        C = closed_form_C(n, delta)
        perms = permutation_matrices(n)
        one = np.ones((n, n))
        D = sum(P.T @ C.T @ C @ P for P in perms) / len(perms)
        F = sum(P.T @ C.T @ one @ C @ P for P in perms) / len(perms)
        M = recurrence_coeffs(n, delta)
        assert np.abs(D - (M.d1 * np.eye(n) + M.d2 * one)).max() <= 1e-12
        assert np.abs(F - (M.m1 * np.eye(n) + M.m2 * one)).max() <= 1e-12

    def test_table_value(self):
        from cdlab import rho_M

        assert rho_M(100, 0.5) == pytest.approx(0.3289, abs=5e-5)

    def test_contraction_of_dominant_mode(self):
        for n in (10, 100):
            for delta in (0.05, 0.3, 0.7, 0.95):
                M = recurrence_coeffs(n, delta)
                assert M.d1 > 0.0
                assert M.d1 + M.m2 < 1.0


class TestAsymptoticCoeffs:
    def test_error_orders(self):
        n = 100
        for delta in (1e-2, 1e-3, 1e-4):
            exact = recurrence_coeffs(n, delta)
            approx = asymptotic_coeffs(n, delta)
            bound_d = 10 * (delta**3 + delta**2 / n)
            assert abs(exact.d1 - approx.d1) <= bound_d
            assert abs(exact.d2 - approx.d2) <= bound_d
            assert abs(exact.m1 - approx.m1) <= 10 * (delta**3 / n + delta**4)
            assert abs(exact.m2 - approx.m2) <= 10 * (delta**3 / n**3 + delta**4 / n**2)

    def test_small_delta_limits(self):
        M = asymptotic_coeffs(100, 1e-9)
        assert M.d1 == pytest.approx(1.0, abs=1e-8)
        assert M.d2 == pytest.approx(1.0 - 2 / 100, abs=1e-8)
        assert M.m1 == pytest.approx(0.0, abs=1e-17)
        assert M.m2 == pytest.approx(0.0, abs=1e-25)

    def test_large_delta_out_of_regime(self):
        # at delta = 0.5 the truncated form d1 = 0.49 is off by O(delta^3):
        # exact is about 0.3256, a documented regime limitation
        approx = asymptotic_coeffs(100, 0.5)
        assert approx.d1 == pytest.approx(0.49, abs=1e-12)
        exact = recurrence_coeffs(100, 0.5)
        assert 0.1 < abs(exact.d1 - approx.d1) < 0.3


class TestEvolve:
    def test_initial_pair(self):
        M = recurrence_coeffs(10, 0.3)
        assert evolve(M, 0.3, 0).tolist() == [[0.3, 0.7]]

    def test_identity_model_collapses(self):
        M = recurrence_coeffs(50, 1.0)
        eta, nu = evolve(M, 1.0, 3)[-1]
        assert eta == 0.0 and nu == 0.0

    def test_matches_brute_force(self):
        n, delta, t = 4, 0.5, 2
        eta, nu = evolve(recurrence_coeffs(n, delta), delta, t)[-1]
        expected = eta * np.eye(n) + nu * np.ones((n, n))
        assert np.abs(brute_force_abar(n, delta, t) - expected).max() <= 1e-10

    def test_rows_are_successive_steps(self):
        M = recurrence_coeffs(10, 0.3)
        pairs = evolve(M, 0.3, 5)
        assert pairs.shape == (6, 2)
        for t in range(6):
            assert np.array_equal(pairs[t], evolve(M, 0.3, t)[-1])
            if t:
                assert np.allclose(pairs[t], M.as_array() @ pairs[t - 1], rtol=1e-15, atol=0)

    def test_negative_t_rejected(self):
        with pytest.raises(ValueError):
            evolve(recurrence_coeffs(4, 0.5), 0.5, -1)

    def test_averaged_form_stays_psd(self):
        for delta in (0.05, 0.5, 0.9):
            M = recurrence_coeffs(20, delta)
            for t in range(12):
                eta, nu = evolve(M, delta, t)[-1]
                assert eta >= -1e-15
                assert eta + 20 * nu >= -1e-15


class TestBruteForceAbar:
    def test_t_zero_returns_hessian(self):
        assert np.array_equal(brute_force_abar(3, 0.4, 0), PermInvariantQuadratic(3, 0.4).matrix())

    def test_exchangeable_structure(self):
        abar = brute_force_abar(4, 0.3, 2)
        diag = np.diag(abar)
        off = abar[~np.eye(4, dtype=bool)]
        assert np.abs(diag - diag[0]).max() <= 1e-12
        assert np.abs(off - off[0]).max() <= 1e-12

    def test_size_guards(self):
        with pytest.raises(ValueError):
            brute_force_abar(6, 0.5, 1)
        with pytest.raises(ValueError):
            brute_force_abar(3, 0.5, 4)
        with pytest.raises(ValueError):
            brute_force_abar(3, 0.5, -1)


class TestExpectedObjective:
    def test_epoch_zero_is_half_n(self):
        assert expected_objective(17, 0.23, 0) == pytest.approx(8.5, abs=1e-12)

    def test_monte_carlo(self):
        f = batch_rpcd_objectives(20, 0.1, 5, 100_000, seed=42)
        closed = expected_objective(20, 0.1, 5)
        se = f.std(ddof=1) / np.sqrt(len(f))
        assert abs(f.mean() - closed) <= 3 * se

    def test_small_delta_first_epoch_approximation(self):
        n, delta = 100, 0.05
        approx = n * delta * (1 - 2 * delta - 2 * delta / n + 2 * delta**2)
        exact = expected_objective(n, delta, 1)
        assert abs(exact - approx) / approx <= 0.15


class TestConditionalExpectedObjective:
    def test_zero_start(self):
        assert conditional_expected_objective(8, 0.2, 4, np.zeros(8)) == 0.0

    def test_epoch_zero_equals_objective(self):
        rng = np.random.default_rng(3)
        x0 = rng.standard_normal(11)
        model = PermInvariantQuadratic(11, 0.35)
        assert conditional_expected_objective(11, 0.35, 0, x0) == pytest.approx(
            objective(model, x0), abs=1e-12
        )

    def test_monte_carlo_fixed_start(self):
        rng = np.random.default_rng(11)
        x0 = rng.standard_normal(10)
        f = batch_rpcd_objectives(10, 0.2, 3, 100_000, seed=11, x0=x0)
        closed = conditional_expected_objective(10, 0.2, 3, x0)
        se = f.std(ddof=1) / np.sqrt(len(f))
        assert abs(f.mean() - closed) <= 3 * se

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            conditional_expected_objective(5, 0.2, 1, np.zeros(4))


class TestFirstIteration:
    def test_factor_value(self):
        # ((n-1)/n) * delta * (2 - delta) at (100, 0.05); times n/2 = 50
        # this gives the expected post-step objective 4.82625
        factor = first_iteration_expectation(100, 0.05)
        assert factor == pytest.approx(0.096525, abs=1e-12)
        assert factor * 50 == pytest.approx(4.82625, abs=1e-10)

    def test_identity_hessian_drops_one_coordinate(self):
        # delta = 1: one step zeroes one coordinate, so averaging the
        # exact conditional over i gives ((n-1)/n) f(x0) pointwise
        n = 10
        rng = np.random.default_rng(5)
        x0 = rng.standard_normal(n)
        model = PermInvariantQuadratic(n, 1.0)
        avg = np.mean([first_iteration_objective(x0, 1.0, i) for i in range(n)])
        assert avg == pytest.approx((n - 1) / n * objective(model, x0), abs=1e-12)
        assert first_iteration_expectation(n, 1.0) == pytest.approx((n - 1) / n, abs=1e-15)

    def test_rejects_outside_window(self):
        # (100, 5.0) read -14.85, a negative expectation factor
        with pytest.raises(ValueError, match="n must be >= 2, got 1"):
            first_iteration_expectation(1, 0.5)
        for n, delta in ((100, 5.0), (10, 10 / 9), (10, 0.0)):
            with pytest.raises(ValueError, match="delta must lie in"):
                first_iteration_expectation(n, delta)
        # the conditional form read -82.5 here
        with pytest.raises(ValueError, match="delta must lie in"):
            first_iteration_objective(np.ones(4), 5.0, 0)

    def test_conditional_matches_simulation(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = int(rng.integers(2, 12))
            delta = float(rng.uniform(0.02, 0.98))
            model = PermInvariantQuadratic(n, delta)
            x0 = rng.standard_normal(n)
            i = int(rng.integers(0, n))
            stepped = simulate_epoch(model, x0, [i])
            assert first_iteration_objective(x0, delta, i) == pytest.approx(
                objective(model, stepped), abs=1e-12
            )

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            first_iteration_objective(np.zeros(4), 0.5, 4)
