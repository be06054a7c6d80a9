import math

import numpy as np
import pytest

from cdlab import (
    NumericalError,
    OrderingPolicy,
    PermInvariantQuadratic,
    Trajectory,
    ccd_bounds,
    closed_form_C,
    empirical_rate,
    generic_bounds,
    quadratic_constants,
    rcd_one_step_example,
    rcd_rates,
    recurrence_coeffs,
    rho_C,
    rho_M,
    rpcd_asymptotic_rate,
    run,
    sd_rate,
)
from conftest import eig_radius

TABLE_DELTAS = (0.80, 0.50, 0.33, 0.20, 0.10, 0.03)


def _traj(f_values):
    f = np.asarray(f_values, dtype=float)
    return Trajectory(f_per_epoch=f, final_x=np.zeros(1))


class TestRhoC:
    def test_table_values(self):
        paper = (0.9342, 0.9924, 0.9971, 0.9988, 0.9995, 0.9999)
        for delta, want in zip(TABLE_DELTAS, paper):
            assert rho_C(100, delta) ** 2 == pytest.approx(want, abs=5e-5)

    def test_special_cases(self):
        assert rho_C(2, 0.3) == (1.0 - 0.3) ** 2
        assert rho_C(2, 1.5) == 0.25
        assert rho_C(50, 1.0) == 0.0

    def test_each_branch_matches_eigvals(self):
        # Newton's method for delta < 1, at moderate and large n and at
        # small n near delta = 1, and the real root for delta > 1
        for n, delta in ((100, 0.2), (700, 0.03), (3, 0.95), (10, 0.999999), (40, 1.01),
                         (7, 1.0 + 1e-9)):
            ref = eig_radius(closed_form_C(n, delta))
            assert abs(rho_C(n, delta) - ref) <= 1e-11 * ref + 1e-13

    # |lambda| for the root reached from mu = 1, to 40 digits: Newton on
    # mu^n - delta w mu^(n-1) + delta - 1 at 60 digits (mpmath) from the
    # float delta, checked against eigvals at n = 1000, and at n = 4
    # against every root of the degree-4 polynomial (mpmath polyroots).
    @pytest.mark.parametrize("n, delta, root", [
        pytest.param(10**5, 0.5, "0.9999999960522766971232826533474551057502", id="1e5-0.5"),
        pytest.param(10**6, 0.5, "0.9999999999605217008331261845484262880879", id="1e6-0.5"),
        pytest.param(10**6, 0.9, "0.9999999982235191779575227955137005373166", id="1e6-0.9"),
    ])
    def test_large_n_matches_40_digit_roots(self, n, delta, root):
        # |mu|^n alone is up to 3.9e-11 off here, and rounds to 1.0 at (1e6, 0.5)
        assert abs(rho_C(n, delta) - float(root)) <= 1e-14 * float(root)

    @pytest.mark.parametrize("n, delta, root, rel", [
        (10**6, 0.9999, "0.9980897209401161589241018754052390133892", 1e-12),
        (10**6, 1.0 - 1e-12, "5.889382638207808885757932033597090238285e-8", 1e-10),
        (4, 1.0 - 1e-12, "1.000037165357129923222169690380252626618e-16", 1e-13),
        (100, 1.0 - 1e-12, "3.278557910535054031299217885015053085421e-12", 1e-13),
    ])
    def test_newton_near_delta_one_keeps_pinned_accuracy(self, n, delta, root, rel):
        # As delta -> 1, lambda -> 0, and the lambda polish keeps lambda's
        # low bits only by adding delta - 1 as one term.  These points read
        # 5.4e-13, 1.8e-11, 9.7e-17 and 1.1e-15 relative.
        assert abs(rho_C(n, delta) - float(root)) <= rel * float(root)

    def test_rejects_delta_outside_window(self):
        for n, delta in ((100, 0.0), (100, 100 / 99), (1, 0.5)):
            for rate in (rho_C, rpcd_asymptotic_rate):
                with pytest.raises(ValueError):
                    rate(n, delta)

    def test_nonconvergence_raises(self, monkeypatch):
        import cdlab.rates as rates

        monkeypatch.setattr(rates, "_NEWTON_ITERATIONS", 2)
        with pytest.raises(NumericalError):
            rho_C(3, 0.95)


class TestRhoM:
    def test_table_values(self):
        assert rho_M(100, 0.8) == pytest.approx(0.1162, abs=5e-5)
        assert rho_M(100, 0.03) == pytest.approx(0.9412, abs=5e-5)

    def test_identity_model(self):
        assert rho_M(100, 1.0) == 0.0

    def test_agrees_with_generic_estimator(self):
        for delta in TABLE_DELTAS:
            M = recurrence_coeffs(100, delta).as_array()
            assert rho_M(100, delta) == pytest.approx(eig_radius(M), abs=1e-10)


class TestRpcdAsymptoticRate:
    def test_small_delta_matches_exact(self):
        assert rpcd_asymptotic_rate(100, 0.03) == pytest.approx(rho_M(100, 0.03), abs=5e-3)

    def test_limit_is_one(self):
        assert rpcd_asymptotic_rate(100, 1e-12) == pytest.approx(1.0, abs=1e-11)

    def test_degrades_at_moderate_delta(self):
        # the truncated form reads 0.818 at delta = 0.1; the exact rate is
        # 0.8164, so the gap is real but still small at this delta
        value = rpcd_asymptotic_rate(100, 0.1)
        assert value == pytest.approx(0.818, abs=1e-12)
        assert 1e-4 < abs(value - rho_M(100, 0.1)) < 5e-3


class TestCcdBounds:
    def test_upper_plugin_value(self):
        upper, _ = ccd_bounds(100, 0.05)
        assert upper == pytest.approx(1.0 - 0.05 / (100 * 95.05), abs=1e-15)

    def test_upper_bound_holds_for_table_deltas(self):
        for delta in TABLE_DELTAS:
            upper, _ = ccd_bounds(100, delta)
            rho2 = eig_radius(closed_form_C(100, delta)) ** 2
            assert rho2 <= upper

    def test_lower_bound_magnitude_small_delta(self):
        # the lower-bound formula tracks the true 1 - rho(C)^2 only in
        # magnitude (both are c*delta/n^2 with moderate c); the literal
        # bracket lower <= rho(C)^2 does not hold at the table deltas
        for delta in (0.03, 0.1):
            _, lower = ccd_bounds(100, delta)
            rho2 = eig_radius(closed_form_C(100, delta)) ** 2
            assert 0.8 <= (1.0 - lower) / (1.0 - rho2) <= 1.1

    def test_limits_to_one(self):
        upper, lower = ccd_bounds(100, 1e-13)
        assert upper == pytest.approx(1.0, abs=1e-12)
        assert lower == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 10, 100, 1000])
    def test_upper_is_sun_ye_and_bounds_rho_C_sq_over_window(self, n):
        # the three-term bound at the model's constants, for delta > 1 too,
        # where mu and L swap roles
        hi = n / (n - 1)
        deltas = [t * hi for t in (1e-9, 1e-3, 0.1, 0.5, 0.75, 0.9, 1 - 1e-3, 1 - 1e-9)]
        deltas += [0.5, 0.8, 1.0, 1.0 + 1e-9, 0.5 * (1.0 + hi)]
        for delta in deltas:
            upper, _ = ccd_bounds(n, delta)
            consts = quadratic_constants(PermInvariantQuadratic(n, delta))
            assert upper == generic_bounds(consts, n, alpha=1.0).sun_ye
            assert upper >= rho_C(n, delta) ** 2

    def test_large_delta_uses_three_term_form(self):
        n, delta = 100, 0.8
        L = n * (1 - delta) + delta
        expected = 1.0 - max(
            delta / (n * L),
            delta / (L**2 * (2 + math.log(n) / math.pi) ** 2),
            delta / n**2,
        )
        upper, _ = ccd_bounds(n, delta)
        assert upper == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize("n", [2, 3, 5, 10, 100, 1000])
def test_lower_and_asymptotic_are_rates_or_nan_over_window(n):
    # each is NaN outside its stated domain, never a value outside [0, 1]
    hi = n / (n - 1)
    deltas = [t * hi for t in np.linspace(0.0, 1.0, 201)[1:-1]]
    deltas += [t * hi for t in (1e-9, 1 - 1e-9)] + [0.9, 1.0, 1.0 + 1.0 / n, 1.0 + 1e-9]
    for delta in deltas:
        for value in (ccd_bounds(n, delta)[1], rpcd_asymptotic_rate(n, delta)):
            assert math.isnan(value) or 0.0 <= value <= 1.0, (n, delta, value)
    assert math.isnan(ccd_bounds(n, 0.5 * (1.0 + hi))[1])  # delta > 1


def test_lower_and_asymptotic_outside_their_domains():
    assert all(math.isnan(ccd_bounds(n, delta)[1]) for n, delta in [(10, 1.1), (2, 0.9), (5, 0.9)])
    assert math.isnan(rpcd_asymptotic_rate(2, 0.9)) and math.isnan(rpcd_asymptotic_rate(10, 1.1))
    assert ccd_bounds(100, 1.0)[1] == pytest.approx((1.0 - 2.0 * math.pi**2 / 100) ** 2)
    assert rpcd_asymptotic_rate(3, 0.75) == pytest.approx(1.0 - 1.5 - 0.5 + 1.125)


class TestRcdRates:
    def test_table_values(self):
        assert rcd_rates(100, 0.8)[1] == pytest.approx(0.4095, abs=5e-5)
        assert rcd_rates(100, 0.1)[1] == pytest.approx(0.8336, abs=5e-5)

    def test_zero_delta(self):
        q, r = rcd_rates(100, 0.0)
        assert q == 1.0 and r == 1.0

    def test_q_rate_form(self):
        assert rcd_rates(50, 0.2)[0] == pytest.approx((1 - 0.2 / 50) ** 50, abs=1e-15)

    @pytest.mark.parametrize("n, delta", [(100, 5.0), (100, -0.5), (100, 100 / 99), (1, 0.5),
                                          (0, 0.5), (100, math.nan)])
    def test_outside_window_rejected(self, n, delta):
        # (100, 5.0) read an epoch rate of 2.9e69 and (100, -0.5) read (1.65, 7.24)
        with pytest.raises(ValueError, match="delta must lie in"):
            rcd_rates(n, delta)


class TestGenericBounds:
    def test_alpha_inverse_L(self):
        consts = quadratic_constants(PermInvariantQuadratic(100, 0.05))
        gb = generic_bounds(consts, 100, alpha=1.0 / consts.L)
        assert gb.beck_tetruashvili == pytest.approx(
            1.0 - consts.mu / (2 * consts.L * 101), rel=1e-12
        )

    def test_optimized_alpha(self):
        # at alpha = 1/(sqrt(n) L) the fixed-step expression evaluates to
        # 1 - mu/(4 sqrt(n) L): both terms of (2/alpha)(1 + n L^2 alpha^2)
        # contribute 2 sqrt(n) L
        consts = quadratic_constants(PermInvariantQuadratic(100, 0.05))
        alpha = 1.0 / (10 * consts.L)
        gb = generic_bounds(consts, 100, alpha=alpha)
        assert gb.beck_tetruashvili == pytest.approx(
            1.0 - consts.mu / (4 * 10 * consts.L), rel=1e-12
        )

    def test_sun_ye_first_term_dominates(self):
        consts = quadratic_constants(PermInvariantQuadratic(100, 0.05))
        gb = generic_bounds(consts, 100, alpha=1.0)
        assert max(gb.sun_ye_terms) == gb.sun_ye_terms[0]
        assert gb.sun_ye == pytest.approx(1.0 - 0.05 / (100 * 95.05), abs=1e-15)

    def test_alpha_out_of_range(self):
        consts = quadratic_constants(PermInvariantQuadratic(10, 0.5))
        with pytest.raises(ValueError):
            generic_bounds(consts, 10, alpha=1.5)
        with pytest.raises(ValueError):
            generic_bounds(consts, 10, alpha=0.0)


class TestSdRate:
    def test_plugin_value(self):
        consts = quadratic_constants(PermInvariantQuadratic(100, 0.05))
        assert sd_rate(consts) == pytest.approx(1.0 - 0.05 / 95.05, abs=1e-15)

    def test_identity_gives_zero(self):
        consts = quadratic_constants(PermInvariantQuadratic(5, 1.0))
        assert sd_rate(consts) == 0.0


class TestEmpiricalRate:
    def test_exact_geometric_sequence(self):
        f = 0.9 ** np.arange(25)
        assert empirical_rate(_traj(f)) == pytest.approx(0.9, abs=1e-12)

    def test_window_parameter(self):
        f = 0.8 ** np.arange(8)
        assert empirical_rate(_traj(f), window=5) == pytest.approx(0.8, abs=1e-12)

    def test_insufficient_epochs(self):
        with pytest.raises(ValueError):
            empirical_rate(_traj(0.9 ** np.arange(10)))

    def test_window_below_one_rejected(self):
        # window = -1 read 2048.0 on these values and window = 0 divided by zero
        f = 0.5 ** np.arange(12)
        for window in (-1, 0):
            with pytest.raises(ValueError, match="window must be >= 1"):
                empirical_rate(_traj(f), window=window)

    def test_zero_in_window(self):
        f = np.concatenate([0.9 ** np.arange(12), [0.0]])
        with pytest.raises(ValueError):
            empirical_rate(_traj(f))

    @pytest.mark.parametrize("where, value", [(-1, math.inf), (-11, math.inf), (-1, math.nan),
                                              (-5, math.nan)])
    def test_nonfinite_in_window_rejected(self, where, value):
        # these read inf, 0.0, nan and 0.9: the rate takes only the window's ends
        f = 0.9 ** np.arange(12)
        f[where] = value
        with pytest.raises(ValueError, match="finite"):
            empirical_rate(_traj(f))

    def test_ccd_run_converges_to_spectral_prediction(self):
        rng = np.random.default_rng(13)
        traj = run(
            PermInvariantQuadratic(100, 0.5),
            OrderingPolicy("ccd"),
            rng.standard_normal(100),
            tol=1e-8,
            seed=0,
        )
        rho2 = eig_radius(closed_form_C(100, 0.5)) ** 2
        assert abs(empirical_rate(traj) - rho2) < 1e-3


class TestRcdOneStepExample:
    def test_small_case(self):
        f0, f1 = rcd_one_step_example(4, 0.1)
        assert (f0, f1) == (pytest.approx(0.2), pytest.approx(0.195))

    def test_exact_ratio(self):
        f0, f1 = rcd_one_step_example(100, 0.5)
        assert (f0, f1) == (pytest.approx(25.0), pytest.approx(24.875))
        assert f1 / f0 == pytest.approx(1.0 - 0.5 / 100, abs=1e-15)

    def test_degenerate_delta(self):
        assert rcd_one_step_example(4, 0.0) == (0.0, 0.0)

    def test_odd_n_rejected(self):
        with pytest.raises(ValueError):
            rcd_one_step_example(5, 0.1)

    @pytest.mark.parametrize("delta", [5.0, 4 / 3, -0.1])
    def test_delta_outside_window_rejected(self, delta):
        # (4, 5.0) read (10.0, -2.5), a negative objective
        with pytest.raises(ValueError, match="delta must lie in"):
            rcd_one_step_example(4, delta)

    def test_matches_simulation_for_every_coordinate(self):
        from cdlab import apply_coordinate_step, coordinate_gradient, init_state, objective

        n, delta = 4, 0.1
        model = PermInvariantQuadratic(n, delta)
        x = np.array([(-1.0) ** (i + 1) for i in range(n)])
        f0, f1 = rcd_one_step_example(n, delta)
        assert objective(model, x) == pytest.approx(f0, abs=1e-15)
        for i in range(n):
            state = init_state(model, x)
            apply_coordinate_step(model, state, i, coordinate_gradient(model, state, i))
            assert objective(model, state.x) == pytest.approx(f1, abs=1e-14)
